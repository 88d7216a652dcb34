package loadgen

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"trips/internal/obs"
	"trips/internal/obs/trace"
	"trips/internal/position"
)

// fakeServer imitates the trips-server surface the harness touches —
// /ingest with injected 429s, /metrics over a real obs registry, a
// blocking SSE /analytics/subscribe — so the closed-loop client contract
// (retry on 429 with Retry-After, count rejections, never error) is
// provable without booting the full pipeline.
type fakeServer struct {
	reg       *obs.Registry
	freshness *obs.Histogram
	ingested  atomic.Int64
	requests  atomic.Int64
	rejectNth int64 // every Nth /ingest request answers 429

	mu       sync.Mutex
	traceIDs []string // X-Trace-Id values seen on /ingest, in arrival order
}

func newFakeServer(rejectNth int64) (*fakeServer, http.Handler) {
	f := &fakeServer{reg: obs.NewRegistry(), rejectNth: rejectNth}
	obs.RegisterRuntimeMetrics(f.reg, "trips")
	f.freshness = f.reg.Histogram("trips_freshness_seconds", "test", obs.FreshnessBounds)
	f.reg.CounterFunc("trips_online_records_total", "test", f.ingested.Load)
	mux := http.NewServeMux()
	mux.HandleFunc("/ingest", func(w http.ResponseWriter, r *http.Request) {
		if tid := r.Header.Get("X-Trace-Id"); tid != "" {
			f.mu.Lock()
			f.traceIDs = append(f.traceIDs, tid)
			f.mu.Unlock()
		}
		if n := f.requests.Add(1); f.rejectNth > 0 && n%f.rejectNth == 0 {
			w.Header().Set("Retry-After", "0")
			http.Error(w, "ingest backlogged", http.StatusTooManyRequests)
			return
		}
		n, err := position.StreamCSV(r.Body, func(rec position.Record) error {
			f.ingested.Add(1)
			f.freshness.Observe(time.Duration(f.ingested.Load()%40) * 100 * time.Millisecond)
			return nil
		})
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		_ = n
		w.WriteHeader(http.StatusOK)
	})
	mux.Handle("/metrics", f.reg.Handler())
	// The trace debug surface, shaped like trips-server's: the list view
	// (spans omitted) and the per-trace span tree. Durations grow with
	// arrival order so the last forced trace is deterministically slowest.
	mux.HandleFunc("/debug/traces", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		ids := append([]string(nil), f.traceIDs...)
		f.mu.Unlock()
		views := make([]trace.TraceView, len(ids))
		for i, id := range ids {
			views[i] = trace.TraceView{ID: id, DurationMs: float64(i + 1), Complete: true}
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{"traces": views})
	})
	mux.HandleFunc("/debug/traces/", func(w http.ResponseWriter, r *http.Request) {
		id := strings.TrimPrefix(r.URL.Path, "/debug/traces/")
		f.mu.Lock()
		found := slices.Contains(f.traceIDs, id)
		f.mu.Unlock()
		if !found {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(trace.TraceView{
			ID: id, Complete: true, DurationMs: 42,
			Spans: []trace.SpanView{{ID: "0000000000000001", Name: "ingest"}},
		})
	})
	mux.HandleFunc("/analytics/subscribe", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Write([]byte("event: hello\ndata: {}\n\n"))
		if fl, ok := w.(http.Flusher); ok {
			fl.Flush()
		}
		<-r.Context().Done()
	})
	return f, mux
}

// testProfile is small enough to finish in seconds yet trips every client
// behavior: batching, shuffle, duplicates, reconnect redelivery, and the
// injected 429 path.
func testProfile() Profile {
	return Profile{
		Name:            "test",
		Devices:         2,
		Visits:          1,
		BatchSize:       16,
		ShuffleWindow:   4,
		DuplicateEvery:  7,
		ReconnectEvery:  3,
		SlowSubscribers: 1,
		Seed:            3,
		SettleTimeout:   3 * time.Second,
	}
}

// TestRunClosedLoop drives a full harness run against the fake server:
// every scheduled delivery must be acknowledged despite the injected
// 429s (retried, counted, never surfaced as an error), the metrics deltas
// must come back, and the report must carry a heap ceiling.
func TestRunClosedLoop(t *testing.T) {
	fake, handler := newFakeServer(5)
	srv := httptest.NewServer(handler)
	defer srv.Close()

	p := testProfile()
	r := &Runner{Addr: srv.URL, Profile: p, Logf: t.Logf}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res, err := r.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}

	streams, err := BuildWorkload(p)
	if err != nil {
		t.Fatal(err)
	}
	var scheduled int64
	for _, s := range streams {
		scheduled += int64(len(s.Records))
	}
	if res.RecordsSent != scheduled {
		t.Errorf("records_sent = %d, want every scheduled delivery acked (%d)", res.RecordsSent, scheduled)
	}
	if res.HTTPErrors != 0 {
		t.Errorf("http_errors = %d; 429s must be retried, not surfaced", res.HTTPErrors)
	}
	if res.Rejected429 == 0 || res.Retries == 0 {
		t.Errorf("rejected=%d retries=%d; the injected 429s never exercised the retry path", res.Rejected429, res.Retries)
	}
	if res.Reconnects == 0 {
		t.Error("reconnect storm never fired")
	}
	// The server saw the acked records plus the reconnect redeliveries.
	if got := fake.ingested.Load(); got < res.RecordsSent {
		t.Errorf("server ingested %d < %d acked", got, res.RecordsSent)
	}
	if res.IngestRequests < res.Retries {
		t.Errorf("requests %d < retries %d", res.IngestRequests, res.Retries)
	}
	if res.FreshnessCount == 0 || res.FreshnessP99S <= 0 || res.FreshnessP50S <= 0 {
		t.Errorf("freshness not measured: count=%d p50=%v p99=%v", res.FreshnessCount, res.FreshnessP50S, res.FreshnessP99S)
	}
	if res.FreshnessP99S < res.FreshnessP50S {
		t.Errorf("p99 %.3fs < p50 %.3fs", res.FreshnessP99S, res.FreshnessP50S)
	}
	if res.HeapMaxBytes <= 0 {
		t.Error("no heap ceiling sampled")
	}
	if res.RecordsPerS <= 0 || res.ElapsedS <= 0 {
		t.Errorf("throughput not derived: %v records/s over %vs", res.RecordsPerS, res.ElapsedS)
	}
}

// TestRunTraceForcing drives a traced run: every TraceEvery-th batch must
// carry a deterministic X-Trace-Id, and the report must come back with the
// slowest kept trace's span tree.
func TestRunTraceForcing(t *testing.T) {
	fake, handler := newFakeServer(0)
	srv := httptest.NewServer(handler)
	defer srv.Close()

	p := testProfile()
	p.TraceEvery = 2
	p.ReconnectEvery = 0 // isolate the trace cadence from redeliveries
	r := &Runner{Addr: srv.URL, Profile: p, Logf: t.Logf}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res, err := r.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}

	fake.mu.Lock()
	seen := append([]string(nil), fake.traceIDs...)
	fake.mu.Unlock()
	streams, err := BuildWorkload(p)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, s := range streams {
		batches := (len(s.Records) + p.BatchSize - 1) / p.BatchSize
		for n := 0; n < batches; n += p.TraceEvery {
			want = append(want, syntheticTraceID(string(s.Device), n, p.Seed))
		}
	}
	if len(seen) != len(want) {
		t.Fatalf("server saw %d traced batches, want %d", len(seen), len(want))
	}
	for _, id := range want {
		if !slices.Contains(seen, id) {
			t.Errorf("expected trace id %s never arrived", id)
		}
	}
	if len(want[0]) != 32 {
		t.Errorf("synthetic trace id %q is not 32 hex digits", want[0])
	}

	if res.SlowestTrace == nil {
		t.Fatal("report missing slowest_trace")
	}
	// The fake ranks traces by arrival order, so the slowest is the last
	// one recorded.
	if res.SlowestTrace.ID != seen[len(seen)-1] {
		t.Errorf("slowest_trace = %s, want the last-arrived %s", res.SlowestTrace.ID, seen[len(seen)-1])
	}
	if len(res.SlowestTrace.Spans) == 0 || !res.SlowestTrace.Complete {
		t.Errorf("slowest_trace lacks its span tree: %+v", res.SlowestTrace)
	}
}

// TestSyntheticTraceIDDeterministic pins the forced-trace identity scheme.
func TestSyntheticTraceIDDeterministic(t *testing.T) {
	a := syntheticTraceID("load-000", 4, 7)
	if b := syntheticTraceID("load-000", 4, 7); a != b {
		t.Errorf("same inputs diverged: %s vs %s", a, b)
	}
	if b := syntheticTraceID("load-000", 6, 7); a == b {
		t.Error("different batches collided")
	}
	if len(a) != 32 {
		t.Errorf("id %q is not 32 hex digits", a)
	}
}

// TestBuildWorkloadDeterministic pins that the same profile always yields
// the same schedule — the property that makes two runs comparable.
func TestBuildWorkloadDeterministic(t *testing.T) {
	a, err := BuildWorkload(testProfile())
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildWorkload(testProfile())
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("device counts diverge: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Device != b[i].Device || len(a[i].Records) != len(b[i].Records) || a[i].Duplicates != b[i].Duplicates {
			t.Fatalf("stream %d diverges between identical builds", i)
		}
		for j := range a[i].Records {
			if a[i].Records[j] != b[i].Records[j] {
				t.Fatalf("stream %d record %d diverges", i, j)
			}
		}
	}
	if a[0].Duplicates == 0 {
		t.Error("schedule carries no duplicates; the at-least-once shape is missing")
	}
}
