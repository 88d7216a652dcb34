package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"trips/internal/obs"
	"trips/internal/position"
	"trips/internal/semantics"
)

// ingestDemoReplay replays one demo device's raw records through
// POST /ingest under a fresh device name, so the online engine sees live
// traffic whose sealing behaviour matches the batch translation.
func ingestDemoReplay(t *testing.T, s *server, mux http.Handler, dev string) int {
	t.Helper()
	src := s.results[s.devices[0]].Raw
	ds := position.NewDataset()
	for _, r := range src.Records {
		r.Device = position.DeviceID(dev)
		ds.Add(r)
	}
	var body bytes.Buffer
	if err := position.WriteCSV(&body, ds); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ingest", &body))
	if rec.Code != http.StatusOK {
		t.Fatalf("ingest status = %d: %s", rec.Code, rec.Body.String())
	}
	return src.Len()
}

// scrape fetches /metrics through the full middleware-wrapped mux and
// parses it with the strict exposition validator.
func scrape(t *testing.T, mux http.Handler) map[string]float64 {
	t.Helper()
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics Content-Type = %q, want text/plain", ct)
	}
	samples, err := obs.ParseExposition(rec.Body)
	if err != nil {
		t.Fatalf("/metrics is not valid Prometheus text: %v", err)
	}
	return samples
}

// TestMetricsEndpoint is the end-to-end observability check: after live
// ingest and a forced flush, /metrics must expose every layer — HTTP,
// ingest, online translation, flush stages, warehouse, analytics — with
// the key series non-zero, and the whole exposition must parse strictly.
func TestMetricsEndpoint(t *testing.T) {
	s := demoServer(t)
	mux := s.mux()

	want := ingestDemoReplay(t, s, mux, "live-obs")
	s.p.Engine.Flush() // seal, so freshness observations reach the analytics tee

	samples := scrape(t, mux)
	if got := samples["trips_ingest_records_total"]; got != float64(want) {
		t.Errorf("trips_ingest_records_total = %v, want %d", got, want)
	}
	// Series that must be present and non-zero after demo load + ingest.
	mustNonZero := []string{
		"trips_online_records_total",
		"trips_online_triplets_total",
		"trips_online_flushes_total",
		"trips_online_sessions_total",
		"trips_online_open_sessions",
		"trips_online_tail_records",
		"trips_online_flush_stage_seconds_count{stage=\"clean\"}",
		"trips_online_flush_stage_seconds_count{stage=\"annotate\"}",
		"trips_online_flush_stage_seconds_count{stage=\"seal\"}",
		"trips_store_trips_total",
		"trips_store_devices",
		"trips_analytics_trips_folded_total",
		"trips_analytics_devices",
		"trips_freshness_seconds_count",
		"trips_analytics_fold_seconds_count",
		"trips_ingest_request_seconds_count",
		"trips_http_request_seconds_count",
		"trips_http_requests_total{code=\"2xx\"}",
	}
	for _, name := range mustNonZero {
		v, ok := samples[name]
		if !ok {
			t.Errorf("series %s missing from /metrics", name)
			continue
		}
		if v <= 0 {
			t.Errorf("%s = %v, want > 0", name, v)
		}
	}
	// Series that must exist even at zero.
	for _, name := range []string{
		"trips_ingest_errors_total",
		"trips_online_late_records_total",
		"trips_analytics_rebuild_recommended",
		"trips_analytics_auto_rebuilds_total",
		"trips_analytics_watermark_seconds",
		"trips_analytics_occupancy_devices",
		"trips_store_segment_write_seconds_count",
	} {
		if _, ok := samples[name]; !ok {
			t.Errorf("series %s missing from /metrics", name)
		}
	}
	// The demo replays a historical dataset, so the watermark lags now by
	// design — the gauge must reflect that, not clamp to zero.
	if v := samples["trips_analytics_watermark_age_seconds"]; v <= 0 {
		t.Errorf("trips_analytics_watermark_age_seconds = %v, want > 0 for a historical replay", v)
	}

	// A warehouse query observes the store query histogram.
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/trips?limit=1", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/trips status = %d", rec.Code)
	}
	if v := scrape(t, mux)["trips_store_query_seconds_count"]; v <= 0 {
		t.Errorf("trips_store_query_seconds_count = %v, want > 0 after /trips", v)
	}

	// /metrics is read-only: POST must be rejected and counted as 4xx.
	rec2 := httptest.NewRecorder()
	mux.ServeHTTP(rec2, httptest.NewRequest(http.MethodPost, "/metrics", nil))
	if rec2.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /metrics status = %d, want 405", rec2.Code)
	}
}

// TestHealthEndpoints proves liveness and readiness through the public mux:
// the demo server finishes load() before serving, so both gates are open.
func TestHealthEndpoints(t *testing.T) {
	s := demoServer(t)
	mux := s.mux()
	for _, path := range []string{"/healthz", "/readyz"} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Errorf("%s status = %d, want 200", path, rec.Code)
		}
	}
	// An unready server must fail /readyz with 503 so load balancers hold
	// traffic until load() completes.
	s.obs.ready.Store(false)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("/readyz while loading status = %d, want 503", rec.Code)
	}
	s.obs.ready.Store(true)
}

// TestConcurrentIngestAndScrape hammers /ingest and /metrics from parallel
// goroutines — the race detector is the assertion: lock-free instrument
// writes and the pull-time bridges (the analytics ones read the views under
// their lock at scrape time) must all be clean under concurrent scrape load.
func TestConcurrentIngestAndScrape(t *testing.T) {
	s := demoServer(t)
	mux := s.mux()
	src := s.results[s.devices[0]].Raw

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ds := position.NewDataset()
			for _, r := range src.Records {
				r.Device = position.DeviceID(fmt.Sprintf("race-%d", i))
				ds.Add(r)
			}
			var body bytes.Buffer
			if err := position.WriteCSV(&body, ds); err != nil {
				t.Error(err)
				return
			}
			// Bounded admission may push back mid-stream under the race
			// detector's slowdown; the closed-loop contract is to re-send
			// the whole batch — the engine's duplicate collapse makes the
			// retry exactly-once.
			payload := body.Bytes()
			for {
				rec := httptest.NewRecorder()
				mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(payload)))
				if rec.Code == http.StatusOK {
					return
				}
				if rec.Code != http.StatusTooManyRequests {
					t.Errorf("ingest status = %d", rec.Code)
					return
				}
				time.Sleep(time.Millisecond)
			}
		}(i)
	}
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 25; j++ {
				rec := httptest.NewRecorder()
				mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
				if rec.Code != http.StatusOK {
					t.Errorf("/metrics status = %d", rec.Code)
					return
				}
			}
		}()
	}
	wg.Wait()
	s.p.Engine.Flush()
	if _, err := obs.ParseExposition(strings.NewReader(scrapeRaw(t, mux))); err != nil {
		t.Fatalf("final exposition does not parse: %v", err)
	}
}

// TestMetricsPlainTextAfterTracedRequest: /metrics is Prometheus text
// 0.0.4, which has no exemplar syntax, so a traced request must not change
// the shape of any sample line. A forced trace runs through the request
// middleware, POST /ingest and a sealing flush — the three places that
// observe latency histograms — and every non-comment line must then be
// `name[{labels}] value` with nothing after the value.
func TestMetricsPlainTextAfterTracedRequest(t *testing.T) {
	s := demoServer(t)
	mux := s.mux()
	req := httptest.NewRequest(http.MethodPost, "/ingest", strings.NewReader(smokeTraceCSV))
	req.Header.Set("Content-Type", "text/csv")
	req.Header.Set("X-Trace-Id", "00112233445566778899aabbccddeeff")
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("ingest status = %d: %s", rec.Code, rec.Body.String())
	}
	s.p.Engine.Flush() // seals the first dwell under the forced trace

	sample := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (\S+)$`)
	samples := 0
	for _, line := range strings.Split(strings.TrimSpace(scrapeRaw(t, mux)), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		samples++
		m := sample.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("not a 0.0.4 sample line: %q", line)
			continue
		}
		if _, err := strconv.ParseFloat(m[2], 64); err != nil {
			t.Errorf("sample value of %q: %v", line, err)
		}
	}
	if samples == 0 {
		t.Fatal("/metrics rendered no samples")
	}
}

func scrapeRaw(t *testing.T, mux http.Handler) string {
	t.Helper()
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status = %d", rec.Code)
	}
	return rec.Body.String()
}

// TestCheckRebuild drives the RebuildRecommended watcher both ways: without
// -auto-rebuild it only warns (and exports the gauge), with it the watcher
// runs the same rebuild path as POST /analytics/rebuild and the signal
// clears.
func TestCheckRebuild(t *testing.T) {
	s := demoServer(t)
	mux := s.mux()

	// Force a dropped backfill: fold a triplet, then one behind the
	// device's fold frontier.
	base := time.Date(2017, 1, 1, 10, 0, 0, 0, time.UTC)
	mk := func(at time.Time) semantics.Triplet {
		return semantics.Triplet{Event: semantics.EventStay, Region: "Nike",
			RegionID: "obs-test-region", From: at, To: at.Add(time.Minute)}
	}
	s.p.Analytics.IngestTrip("ooo-dev", mk(base.Add(time.Hour)))
	s.p.Analytics.IngestTrip("ooo-dev", mk(base)) // behind the frontier: dropped
	if st := s.p.Analytics.Stats(); !st.RebuildRecommended {
		t.Fatal("out-of-order fold did not set RebuildRecommended")
	}

	// The exported gauge reflects it.
	if v := scrape(t, mux)["trips_analytics_rebuild_recommended"]; v != 1 {
		t.Errorf("trips_analytics_rebuild_recommended = %v, want 1", v)
	}

	// Warn-only mode: the signal persists, nothing rebuilds.
	s.checkRebuild(false)
	if got := s.obs.autoRebuilds.Value(); got != 0 {
		t.Errorf("auto rebuilds after warn-only check = %d, want 0", got)
	}
	if !s.p.Analytics.Stats().RebuildRecommended {
		t.Error("warn-only check cleared RebuildRecommended")
	}
	if !s.rebuildWarned.Load() {
		t.Error("warn latch not set after warn-only check")
	}

	// Auto mode: the rebuild runs, the signal clears, the counter ticks.
	s.checkRebuild(true)
	if got := s.obs.autoRebuilds.Value(); got != 1 {
		t.Errorf("auto rebuilds = %d, want 1", got)
	}
	if st := s.p.Analytics.Stats(); st.RebuildRecommended {
		t.Errorf("RebuildRecommended still set after auto-rebuild: %+v", st)
	}
	if s.rebuildWarned.Load() {
		t.Error("warn latch not reset after successful auto-rebuild")
	}
	if v := scrape(t, mux)["trips_analytics_rebuild_recommended"]; v != 0 {
		t.Errorf("trips_analytics_rebuild_recommended after rebuild = %v, want 0", v)
	}
	if v := scrape(t, mux)["trips_analytics_auto_rebuilds_total"]; v != 1 {
		t.Errorf("trips_analytics_auto_rebuilds_total = %v, want 1", v)
	}

	// A clean engine: checkRebuild is a no-op either way.
	s.checkRebuild(true)
	if got := s.obs.autoRebuilds.Value(); got != 1 {
		t.Errorf("auto rebuilds after clean check = %d, want 1", got)
	}
}
