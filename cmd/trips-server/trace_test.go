package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"trips/internal/obs/trace"
)

// smokeTraceCSV mirrors the CI restart-smoke payload: a short dwell, then a
// second dwell ~15 minutes of event time later so the first stay is past
// the seal horizon and a single Flush seals and emits it end to end.
const smokeTraceCSV = "device,x,y,floor,time\n" +
	"trace-dev,5.0,5.0,1F,2017-01-01T15:00:00Z\n" +
	"trace-dev,5.2,5.1,1F,2017-01-01T15:00:05Z\n" +
	"trace-dev,5.1,4.9,1F,2017-01-01T15:00:10Z\n" +
	"trace-dev,20.0,20.0,1F,2017-01-01T15:15:00Z\n" +
	"trace-dev,20.1,20.0,1F,2017-01-01T15:15:05Z\n"

// TestEndToEndTraceSpanTree is the acceptance test for the tracing
// tentpole: one forced ingest must come back from /debug/traces/{id} as a
// kept, complete trace whose span tree covers the whole pipeline —
// ingest → enqueue → clean → annotate → seal → warehouse_append →
// analytics_fold — with parent links intact and stage durations consistent
// with the measured wall time. Run under -race it also exercises span
// recording from the shard pool against the tracer's mutex.
func TestEndToEndTraceSpanTree(t *testing.T) {
	s := demoServer(t)
	mux := s.mux()
	const tid = "00112233445566778899aabbccddeeff"

	start := time.Now()
	req := httptest.NewRequest(http.MethodPost, "/ingest", strings.NewReader(smokeTraceCSV))
	req.Header.Set("Content-Type", "text/csv")
	req.Header.Set("X-Trace-Id", tid)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("ingest status = %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Trace-Id"); got != tid {
		t.Fatalf("X-Trace-Id echoed %q, want %q", got, tid)
	}
	// The flush seals the first dwell (the second sits 15 min past it) and
	// the emitter chain runs inline: warehouse append, analytics fold.
	s.p.Engine.Flush()
	wallMs := float64(time.Since(start)) / float64(time.Millisecond)

	rec2 := httptest.NewRecorder()
	mux.ServeHTTP(rec2, httptest.NewRequest(http.MethodGet, "/debug/traces/"+tid, nil))
	if rec2.Code != http.StatusOK {
		t.Fatalf("GET /debug/traces/%s status = %d: %s", tid, rec2.Code, rec2.Body.String())
	}
	var view trace.TraceView
	if err := json.NewDecoder(rec2.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	if view.ID != tid {
		t.Errorf("trace id = %q, want %q", view.ID, tid)
	}
	if !view.Complete {
		t.Errorf("trace not complete: the analytics_fold terminal span never arrived (spans: %+v)", view.Spans)
	}
	if !view.Pinned {
		t.Error("forced trace not pinned")
	}
	if view.Device != "trace-dev" {
		t.Errorf("trace device = %q, want trace-dev", view.Device)
	}

	byName := map[string]trace.SpanView{}
	for _, sp := range view.Spans {
		if _, dup := byName[sp.Name]; !dup {
			byName[sp.Name] = sp
		}
	}
	pipeline := []string{"ingest", "enqueue", "clean", "annotate", "seal", "warehouse_append", "analytics_fold"}
	for _, name := range pipeline {
		if _, ok := byName[name]; !ok {
			t.Fatalf("span %q missing from trace (got %v)", name, spanNames(view.Spans))
		}
		if view.Stages[name] < 0 {
			t.Errorf("stage %q has negative duration %f ms", name, view.Stages[name])
		}
	}

	// Parent links: the request's root span fathers the shard-side stages,
	// and the seal span fathers the emission consumers.
	root := byName["ingest"]
	if root.Parent != "" {
		t.Errorf("ingest span has parent %q, want none", root.Parent)
	}
	for _, name := range []string{"enqueue", "clean", "annotate", "seal"} {
		if p := byName[name].Parent; p != root.ID {
			t.Errorf("%s span parent = %q, want ingest root %q", name, p, root.ID)
		}
	}
	seal := byName["seal"]
	for _, name := range []string{"warehouse_append", "analytics_fold"} {
		if p := byName[name].Parent; p != seal.ID {
			t.Errorf("%s span parent = %q, want seal span %q", name, p, seal.ID)
		}
	}
	if sh := byName["enqueue"].Shard; sh < 0 {
		t.Errorf("enqueue span shard = %d, want a worker shard", sh)
	}

	// Durations must be consistent with the wall clock: the whole trace —
	// and so every per-stage rollup — fits inside the POST..Flush window
	// the test measured around it.
	if view.DurationMs > wallMs {
		t.Errorf("trace duration %.3f ms exceeds measured wall time %.3f ms", view.DurationMs, wallMs)
	}
	for name, ms := range view.Stages {
		if ms > wallMs {
			t.Errorf("stage %s rollup %.3f ms exceeds wall time %.3f ms", name, ms, wallMs)
		}
	}

	// The list view carries the trace (sans spans) and honors filters.
	rec3 := httptest.NewRecorder()
	mux.ServeHTTP(rec3, httptest.NewRequest(http.MethodGet, "/debug/traces?device=trace-dev", nil))
	if rec3.Code != http.StatusOK {
		t.Fatalf("GET /debug/traces status = %d", rec3.Code)
	}
	var list tracesResponse
	if err := json.NewDecoder(rec3.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, tr := range list.Traces {
		if tr.ID == tid {
			found = true
			if len(tr.Spans) != 0 {
				t.Error("list view must omit span trees")
			}
		}
	}
	if !found {
		t.Errorf("trace %s missing from /debug/traces?device=trace-dev", tid)
	}
	if list.Stats.Kept == 0 {
		t.Error("tracer stats report zero kept traces")
	}

	// Device lineage ties the trace to the pipeline state it flowed through.
	rec4 := httptest.NewRecorder()
	mux.ServeHTTP(rec4, httptest.NewRequest(http.MethodGet, "/debug/device/trace-dev", nil))
	if rec4.Code != http.StatusOK {
		t.Fatalf("GET /debug/device/trace-dev status = %d: %s", rec4.Code, rec4.Body.String())
	}
	var lineage deviceLineageView
	if err := json.NewDecoder(rec4.Body).Decode(&lineage); err != nil {
		t.Fatal(err)
	}
	if !lineage.Warehoused {
		t.Error("lineage does not show the sealed trip in the warehouse")
	}
	if lineage.Live == nil {
		t.Error("lineage missing the live session (tail records still open)")
	} else {
		if lineage.Live.LastFlush == nil || lineage.Live.LastFlush.Sealed == 0 {
			t.Errorf("lineage last flush = %+v, want a sealing breakdown", lineage.Live.LastFlush)
		}
		if len(lineage.Live.Provisional) == 0 {
			t.Error("lineage missing the open second dwell's provisional triplet")
		}
	}
	foundTrace := false
	for _, id := range lineage.RecentTraces {
		if id == tid {
			foundTrace = true
		}
	}
	if !foundTrace {
		t.Errorf("lineage recentTraces %v missing %s", lineage.RecentTraces, tid)
	}
}

// TestTraceEndpointsBadInputs pins the debug surface's failure modes.
func TestTraceEndpointsBadInputs(t *testing.T) {
	s := demoServer(t)
	mux := s.mux()
	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec
	}
	if rec := get("/debug/traces/not-hex"); rec.Code != http.StatusBadRequest {
		t.Errorf("malformed trace id status = %d, want 400", rec.Code)
	}
	if rec := get("/debug/traces/ffffffffffffffffffffffffffffffff"); rec.Code != http.StatusNotFound {
		t.Errorf("unknown trace id status = %d, want 404", rec.Code)
	}
	if rec := get("/debug/traces?min_ms=-1"); rec.Code != http.StatusBadRequest {
		t.Errorf("negative min_ms status = %d, want 400", rec.Code)
	}
	if rec := get("/debug/traces?err=maybe"); rec.Code != http.StatusBadRequest {
		t.Errorf("bad err filter status = %d, want 400", rec.Code)
	}
	if rec := get("/debug/traces?limit=0"); rec.Code != http.StatusBadRequest {
		t.Errorf("zero limit status = %d, want 400", rec.Code)
	}
	if rec := get("/debug/device/ghost-device"); rec.Code != http.StatusNotFound {
		t.Errorf("unknown device lineage status = %d, want 404", rec.Code)
	}
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/debug/traces", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /debug/traces status = %d, want 405", rec.Code)
	}
}

func spanNames(spans []trace.SpanView) []string {
	names := make([]string, len(spans))
	for i, sp := range spans {
		names[i] = sp.Name
	}
	return names
}
