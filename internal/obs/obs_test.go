package obs

import (
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"trips/internal/obs/trace"
)

func testRegistry(t *testing.T) (*Registry, *Counter, *Histogram) {
	t.Helper()
	r := NewRegistry()
	c := r.Counter("test_ops_total", "Operations.", "kind", "write")
	h := r.Histogram("test_op_seconds", "Operation latency.", nil)
	return r, c, h
}

// TestPrometheusTextFormat renders a populated registry and checks the
// output through the strict parser: every sample typed, labels
// well-formed, values parseable, histogram series complete.
func TestPrometheusTextFormat(t *testing.T) {
	r, c, h := testRegistry(t)
	r.CounterFunc("test_derived_total", "Bridged counter.", func() int64 { return 42 })
	r.GaugeFunc("test_watermark_seconds", "Bridged gauge.", func() float64 { return 1483264800.5 })
	r.Counter("test_ops_total", "Operations.", "kind", "read")
	r.Histogram("test_stage_seconds", "Stage latency.", nil, "stage", "clean")
	r.Histogram("test_stage_seconds", "Stage latency.", nil, "stage", "annotate")

	c.Add(7)
	for _, d := range []time.Duration{time.Microsecond, time.Millisecond, 40 * time.Millisecond, 3 * time.Second, time.Hour} {
		h.Observe(d)
	}

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	samples, err := ParseExposition(strings.NewReader(out))
	if err != nil {
		t.Fatalf("output does not parse: %v\n%s", err, out)
	}
	for key, want := range map[string]float64{
		`test_ops_total{kind="write"}`:      7,
		`test_ops_total{kind="read"}`:       0,
		"test_derived_total":                42,
		"test_watermark_seconds":            1483264800.5,
		"test_op_seconds_count":             5,
		`test_op_seconds_bucket{le="+Inf"}`: 5,
	} {
		if got, ok := samples[key]; !ok {
			t.Errorf("missing sample %s\n%s", key, out)
		} else if got != want {
			t.Errorf("%s = %v, want %v", key, got, want)
		}
	}
	// Cumulative buckets are monotone and end at the count.
	var prev float64
	for _, bound := range DefLatencyBounds {
		key := `test_op_seconds_bucket{le="` + formatFloat(bound.Seconds()) + `"}`
		v, ok := samples[key]
		if !ok {
			t.Fatalf("missing bucket %s", key)
		}
		if v < prev {
			t.Errorf("bucket %s = %v < previous %v (not cumulative)", key, v, prev)
		}
		prev = v
	}
	if samples[`test_op_seconds_bucket{le="+Inf"}`] < prev {
		t.Error("+Inf bucket below the last bounded bucket")
	}
	// The labeled histogram families must render under one TYPE line each.
	if n := strings.Count(out, "# TYPE test_stage_seconds "); n != 1 {
		t.Errorf("test_stage_seconds has %d TYPE lines, want 1", n)
	}
}

// TestHistogramQuantilesMonotone feeds a random workload and requires the
// quantile estimates to be ordered and bounded by the observed extremes.
func TestHistogramQuantilesMonotone(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_q_seconds", "q", nil)
	rng := rand.New(rand.NewSource(7))
	var max time.Duration
	for i := 0; i < 5000; i++ {
		d := time.Duration(rng.Int63n(int64(12 * time.Second)))
		if d > max {
			max = d
		}
		h.Observe(d)
	}
	qs := []float64{0.01, 0.10, 0.50, 0.90, 0.99, 0.999}
	var prev time.Duration
	for _, q := range qs {
		v := h.Quantile(q)
		if v < prev {
			t.Errorf("quantile(%v) = %v < quantile below it = %v", q, v, prev)
		}
		if v < 0 || v > max {
			t.Errorf("quantile(%v) = %v outside [0, %v]", q, v, max)
		}
		prev = v
	}
}

// TestWriteSideZeroAlloc guards the hot-path contract: observing and
// counting must not allocate (the ingest route's AllocsPerRun test depends
// on it).
//
//trips:guards Counter.Inc
//trips:guards Counter.Add
//trips:guards Histogram.Observe
func TestWriteSideZeroAlloc(t *testing.T) {
	_, c, h := testRegistry(t)
	if avg := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		h.Observe(87 * time.Millisecond)
	}); avg != 0 {
		t.Errorf("write side allocates %.1f times per op, want 0", avg)
	}
	// Nil metrics are free too — disabled instrumentation must cost only
	// the nil checks.
	var nc *Counter
	var nh *Histogram
	if avg := testing.AllocsPerRun(1000, func() {
		nc.Inc()
		nh.Observe(time.Second)
	}); avg != 0 {
		t.Errorf("nil metrics allocate %.1f times per op, want 0", avg)
	}
	if nc.Value() != 0 || nh.Count() != 0 || nh.Quantile(0.5) != 0 {
		t.Error("nil metric reads are not zero")
	}
}

// TestConcurrentObserveAndScrape hammers every primitive from writer
// goroutines while scraping; run under -race this is the concurrency
// proof, and the final render must still parse.
func TestConcurrentObserveAndScrape(t *testing.T) {
	r, c, h := testRegistry(t)
	r.GaugeFunc("test_fn", "fn", func() float64 { return float64(c.Value()) })
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				h.Observe(time.Duration(rng.Int63n(int64(time.Second))))
			}
		}(int64(i))
	}
	for i := 0; i < 50; i++ {
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		if _, err := ParseExposition(strings.NewReader(b.String())); err != nil {
			t.Fatalf("scrape %d does not parse: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	samples, err := ParseExposition(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if samples[`test_ops_total{kind="write"}`] != float64(c.Value()) {
		t.Error("final render out of sync with counter")
	}
}

// TestRegistryPanics locks the wiring-time misuse diagnostics.
func TestRegistryPanics(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	r := NewRegistry()
	r.Counter("dup_total", "d")
	expectPanic("kind mismatch", func() { r.GaugeFunc("dup_total", "d", func() float64 { return 0 }) })
	expectPanic("duplicate series", func() { r.Counter("dup_total", "d") })
	expectPanic("bad name", func() { r.Counter("bad name", "d") })
	expectPanic("odd labels", func() { r.Counter("odd_total", "d", "k") })
	expectPanic("bad bounds", func() {
		r.Histogram("h_seconds", "d", []time.Duration{time.Second, time.Millisecond})
	})
}

// TestMiddlewareAndHealth drives the HTTP plumbing: status classes
// counted, latency observed, access line logged, health endpoints answer.
func TestMiddlewareAndHealth(t *testing.T) {
	r := NewRegistry()
	m := NewHTTPMetrics(r, "test")
	var logBuf strings.Builder
	logger := slog.New(slog.NewTextHandler(&logBuf, nil))
	inner := http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path == "/missing" {
			http.NotFound(w, req)
			return
		}
		w.Write([]byte("hello"))
	})
	h := Middleware(m, logger, nil, inner)

	for _, path := range []string{"/", "/missing", "/"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	}
	if got := m.ByClass[2].Value(); got != 2 {
		t.Errorf("2xx count = %d, want 2", got)
	}
	if got := m.ByClass[4].Value(); got != 1 {
		t.Errorf("4xx count = %d, want 1", got)
	}
	if m.Latency.Count() != 3 {
		t.Errorf("latency count = %d, want 3", m.Latency.Count())
	}
	logs := logBuf.String()
	for _, want := range []string{"method=GET", "path=/missing", "status=404", "duration=", "bytes="} {
		if !strings.Contains(logs, want) {
			t.Errorf("access log missing %q:\n%s", want, logs)
		}
	}

	rec := httptest.NewRecorder()
	HealthHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("healthz = %d", rec.Code)
	}
	ready := false
	rh := ReadyHandler(func() bool { return ready })
	rec = httptest.NewRecorder()
	rh.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("readyz before ready = %d, want 503", rec.Code)
	}
	ready = true
	rec = httptest.NewRecorder()
	rh.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("readyz after ready = %d, want 200", rec.Code)
	}
}

// TestMetricsHandler scrapes the registry over HTTP.
func TestMetricsHandler(t *testing.T) {
	r, c, _ := testRegistry(t)
	c.Add(5)
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	samples, err := ParseExposition(rec.Body)
	if err != nil {
		t.Fatal(err)
	}
	if samples[`test_ops_total{kind="write"}`] != 5 {
		t.Error("scrape missing counter value")
	}
	rec = httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/metrics", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /metrics = %d, want 405", rec.Code)
	}
}

// TestParseExpositionRejects locks the validator's strictness — the
// format guarantees the /metrics tests rely on.
func TestParseExpositionRejects(t *testing.T) {
	bad := map[string]string{
		"untyped sample":    "some_total 3\n",
		"bad value":         "# TYPE x_total counter\nx_total three\n",
		"bad name":          "# TYPE x_total counter\n3x{a=\"b\"} 1\n",
		"unterminated":      "# TYPE x gauge\nx{a=\"b 1\n",
		"duplicate sample":  "# TYPE x gauge\nx 1\nx 2\n",
		"duplicate TYPE":    "# TYPE x gauge\n# TYPE x counter\nx 1\n",
		"bad TYPE":          "# TYPE x matrix\nx 1\n",
		"junk after labels": "# TYPE x gauge\nx{a=\"b\"c} 1\n",
		// 0.0.4 has no exemplar syntax; a suffix after the value is junk.
		"exemplar suffix": "# TYPE x histogram\nx_bucket{le=\"1\"} 1 # {trace_id=\"a\"} 0.5\n",
		"trailing field":  "# TYPE x gauge\nx 1 # {trace_id=\"a\"} 0.5\n",
	}
	for name, in := range bad {
		if _, err := ParseExposition(strings.NewReader(in)); err == nil {
			t.Errorf("%s accepted:\n%s", name, in)
		}
	}
	good := "# HELP y_seconds histogram with labels\n" +
		"# TYPE y_seconds histogram\n" +
		"y_seconds_bucket{stage=\"clean\",le=\"0.005\"} 1\n" +
		"y_seconds_bucket{stage=\"clean\",le=\"+Inf\"} 2\n" +
		"y_seconds_sum{stage=\"clean\"} 0.01\n" +
		"y_seconds_count{stage=\"clean\"} 2\n"
	if _, err := ParseExposition(strings.NewReader(good)); err != nil {
		t.Errorf("valid histogram exposition rejected: %v", err)
	}
}

// TestMiddlewareTracing drives the trace side of the middleware: forced
// inbound X-Trace-Id, head sampling, context injection, the response
// header echo, and trace_id on the access-log line.
func TestMiddlewareTracing(t *testing.T) {
	r := NewRegistry()
	m := NewHTTPMetrics(r, "test")
	tracer := trace.New(trace.Config{SampleRate: 0})
	var logBuf strings.Builder
	logger := slog.New(slog.NewTextHandler(&logBuf, nil))
	var sawCtx trace.Ctx
	inner := http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		sawCtx = trace.FromContext(req.Context())
		sp := tracer.Start(sawCtx, "analytics_fold") // the terminal span completes the trace
		defer sp.End()
		w.Write([]byte("ok"))
	})
	h := Middleware(m, logger, tracer, inner)

	// Forced: the inbound ID is honored, sampled, echoed, and logged.
	const tid = "00112233445566778899aabbccddeeff"
	req := httptest.NewRequest(http.MethodGet, "/x", nil)
	req.Header.Set("X-Trace-Id", tid)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if !sawCtx.Sampled() || !sawCtx.Forced() || sawCtx.Trace.String() != tid {
		t.Fatalf("handler ctx = %+v, want forced %s", sawCtx, tid)
	}
	if got := rec.Header().Get("X-Trace-Id"); got != tid {
		t.Errorf("response X-Trace-Id = %q, want %q", got, tid)
	}
	if !strings.Contains(logBuf.String(), "trace_id="+tid) {
		t.Errorf("access log missing trace_id:\n%s", logBuf.String())
	}
	id, _ := trace.ParseTraceID(tid)
	if got, ok := tracer.Get(id); !ok || !got.Complete || len(got.Spans) != 1 {
		t.Fatalf("forced trace not kept: ok=%v %+v", ok, got)
	}

	// Unsampled (rate 0, no header): an ID is still issued for the log and
	// the header, but nothing records.
	logBuf.Reset()
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/y", nil))
	if sawCtx.Sampled() {
		t.Fatal("rate-0 request sampled")
	}
	if sawCtx.Trace.IsZero() {
		t.Fatal("unsampled request has no correlation id")
	}
	if got := rec.Header().Get("X-Trace-Id"); got != sawCtx.Trace.String() {
		t.Errorf("response X-Trace-Id = %q, want %q", got, sawCtx.Trace.String())
	}
	if !strings.Contains(logBuf.String(), "trace_id="+sawCtx.Trace.String()) {
		t.Errorf("access log missing correlation id:\n%s", logBuf.String())
	}
	if s := tracer.Stats(); s.Sampled != 1 {
		t.Errorf("sampled count = %d, want only the forced trace", s.Sampled)
	}

	// A malformed inbound header falls back to the sampling roll.
	req = httptest.NewRequest(http.MethodGet, "/z", nil)
	req.Header.Set("X-Trace-Id", "not-a-trace-id")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if sawCtx.Sampled() {
		t.Error("malformed header forced sampling")
	}
}
