package main

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"trips/internal/obs/trace"
	"trips/internal/online"
	"trips/internal/position"
	"trips/internal/tripstore"
)

// The trace endpoints serve the sampled end-to-end tracer and per-device
// lineage:
//
//	GET /debug/traces             kept traces, newest first
//	                              (?min_ms=, ?device=, ?err=true, ?limit=)
//	GET /debug/traces/{id}        one trace's full span tree
//	GET /debug/device/{id}        pipeline lineage: the live session
//	                              snapshot, warehoused flag, recent traces
//
// They live on the public mux (unlike pprof) because they answer the
// operational question "where did this request's time go" — the trace ID
// comes back on every response as X-Trace-Id.

// tracesResponse is the GET /debug/traces body. The list view omits span
// trees (fetch /debug/traces/{id} for one); Stats summarize tracer
// activity so the page is self-describing about sampling and eviction.
type tracesResponse struct {
	Stats  trace.Stats       `json:"stats"`
	Traces []trace.TraceView `json:"traces"`
}

func (s *server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	q := r.URL.Query()
	f := trace.Filter{Device: q.Get("device")}
	if v := q.Get("min_ms"); v != "" {
		ms, err := strconv.ParseFloat(v, 64)
		if err != nil || ms < 0 {
			http.Error(w, fmt.Sprintf("min_ms: bad value %q", v), http.StatusBadRequest)
			return
		}
		f.MinDuration = time.Duration(ms * float64(time.Millisecond))
	}
	if v := q.Get("err"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			http.Error(w, fmt.Sprintf("err: bad value %q", v), http.StatusBadRequest)
			return
		}
		f.Err = b
	}
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			http.Error(w, fmt.Sprintf("limit: bad value %q", v), http.StatusBadRequest)
			return
		}
		f.Limit = min(n, 1000)
	}
	traces := s.obs.tracer.Traces(f)
	views := make([]trace.TraceView, 0, len(traces))
	for _, t := range traces {
		v := t.View()
		v.Spans = nil
		views = append(views, v)
	}
	writeJSON(w, tracesResponse{Stats: s.obs.tracer.Stats(), Traces: views})
}

func (s *server) handleTraceByID(w http.ResponseWriter, r *http.Request) {
	raw := strings.TrimPrefix(r.URL.Path, "/debug/traces/")
	id, ok := trace.ParseTraceID(raw)
	if !ok {
		http.Error(w, fmt.Sprintf("bad trace id %q (want 32 hex digits)", raw), http.StatusBadRequest)
		return
	}
	tr, ok := s.obs.tracer.Get(id)
	if !ok {
		http.NotFound(w, r)
		return
	}
	writeJSON(w, tr.View())
}

// deviceLineageView is the GET /debug/device/{id} body: where one device's
// data currently sits in the pipeline. Live is the engine's Snapshot of the
// device, present while the engine holds a session for it; Warehoused
// reports whether any sealed trip reached the store; RecentTraces lists
// kept trace IDs attributed to the device, newest first.
type deviceLineageView struct {
	Device       position.DeviceID `json:"device"`
	Live         *online.Snapshot  `json:"live,omitempty"`
	Warehoused   bool              `json:"warehoused"`
	RecentTraces []string          `json:"recentTraces,omitempty"`
}

func (s *server) handleDeviceLineage(w http.ResponseWriter, r *http.Request) {
	raw := strings.TrimPrefix(r.URL.Path, "/debug/device/")
	if raw == "" || strings.Contains(raw, "/") {
		http.NotFound(w, r)
		return
	}
	dev := position.DeviceID(raw)
	view := deviceLineageView{Device: dev}
	if snap, ok := s.p.Engine.Snapshot(dev); ok {
		view.Live = &snap
	}
	if page, err := s.p.Warehouse.Query(tripstore.QuerySpec{Device: dev, Limit: 1}); err == nil {
		view.Warehoused = len(page.Trips) > 0
	}
	for _, t := range s.obs.tracer.Traces(trace.Filter{Device: raw, Limit: 5}) {
		view.RecentTraces = append(view.RecentTraces, t.ID.String())
	}
	if view.Live == nil && !view.Warehoused && len(view.RecentTraces) == 0 {
		http.NotFound(w, r)
		return
	}
	writeJSON(w, view)
}
