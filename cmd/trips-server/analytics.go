package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"trips/internal/analytics"
	"trips/internal/dsm"
)

// The analytics endpoints serve the incremental materialized views — every
// answer reads folded state, never a rescan of stored trips:
//
//	GET  /analytics                     engine counters (incl. snapshot age)
//	POST /analytics/rebuild             re-derive the views from the warehouse
//	GET  /analytics/occupancy           per-region live occupancy (?activeWithin=5m)
//	GET  /analytics/flows               region→region transitions (?region=, ?limit=)
//	GET  /analytics/dwell/{region}      dwell histogram + quantiles
//	GET  /analytics/topk                windowed popularity (?k=, ?window=15m)
//	GET  /analytics/subscribe           SSE stream of view deltas (?regions=a,b)
//
// Region path/query parameters resolve like /regions/{id}/visits: region ID
// first, semantic tag second.

// handleRebuild serves POST /analytics/rebuild — the recovery for
// RebuildRecommended (a backfill the incremental fold dropped): the views
// re-derive from the warehouse under live ingest, and the response carries
// the rebuilt counters.
func (s *server) handleRebuild(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if err := s.p.Rebuild(); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, s.p.Analytics.Stats())
}

// resolveRegion maps a path or query segment onto a model region ID.
func (s *server) resolveRegion(raw string) (dsm.RegionID, bool) {
	if r := s.model.Region(dsm.RegionID(raw)); r != nil {
		return r.ID, true
	}
	if r := s.model.RegionByTag(raw); r != nil {
		return r.ID, true
	}
	return "", false
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func (s *server) handleAnalyticsStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.p.Analytics.Stats())
}

// occupancyView is the /analytics/occupancy response.
type occupancyView struct {
	Watermark time.Time                   `json:"watermark,omitzero"`
	Regions   []analytics.RegionOccupancy `json:"regions"`
}

func (s *server) handleOccupancy(w http.ResponseWriter, r *http.Request) {
	var activeWithin time.Duration
	if v := r.URL.Query().Get("activeWithin"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d < 0 {
			http.Error(w, fmt.Sprintf("activeWithin: bad duration %q", v), http.StatusBadRequest)
			return
		}
		activeWithin = d
	}
	regions := s.p.Analytics.Occupancy(activeWithin)
	if regions == nil {
		regions = []analytics.RegionOccupancy{}
	}
	writeJSON(w, occupancyView{Watermark: s.p.Analytics.Watermark(), Regions: regions})
}

func (s *server) handleFlows(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var region dsm.RegionID
	if v := q.Get("region"); v != "" {
		id, ok := s.resolveRegion(v)
		if !ok {
			http.NotFound(w, r)
			return
		}
		region = id
	}
	limit := 100
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			http.Error(w, fmt.Sprintf("limit: bad value %q", v), http.StatusBadRequest)
			return
		}
		limit = min(n, 1000)
	}
	flows := s.p.Analytics.Flows(region, limit)
	if flows == nil {
		flows = []analytics.Flow{}
	}
	writeJSON(w, flows)
}

func (s *server) handleDwell(w http.ResponseWriter, r *http.Request) {
	raw := strings.TrimPrefix(r.URL.Path, "/analytics/dwell/")
	if raw == "" || strings.Contains(raw, "/") {
		http.NotFound(w, r)
		return
	}
	id, ok := s.resolveRegion(raw)
	if !ok {
		http.NotFound(w, r)
		return
	}
	st, ok := s.p.Analytics.Dwell(id)
	if !ok {
		// A known region with no folded trips yet: an empty summary, not
		// an error — the hot polling case for fresh deployments.
		st = analytics.DwellStats{RegionID: id}
	}
	writeJSON(w, st)
}

func (s *server) handleTopK(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	k := 10
	if v := q.Get("k"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			http.Error(w, fmt.Sprintf("k: bad value %q", v), http.StatusBadRequest)
			return
		}
		k = min(n, 1000)
	}
	var window time.Duration
	if v := q.Get("window"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			http.Error(w, fmt.Sprintf("window: bad duration %q", v), http.StatusBadRequest)
			return
		}
		window = d
	}
	top := s.p.Analytics.TopK(k, window)
	if top == nil {
		top = []analytics.RegionCount{}
	}
	writeJSON(w, top)
}

// handleSubscribe serves the continuous-query endpoint: an SSE stream of
// analytics view deltas, optionally filtered to ?regions=a,b (IDs or
// semantic tags). Each subscriber gets its own buffered feed; one that
// stops reading is evicted by the hub rather than stalling ingestion, and
// the stream ends with an "evicted" event so clients can distinguish
// being dropped from a server shutdown.
func (s *server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	var regions []dsm.RegionID
	if v := r.URL.Query().Get("regions"); v != "" {
		for _, raw := range strings.Split(v, ",") {
			raw = strings.TrimSpace(raw)
			if raw == "" {
				continue
			}
			id, ok := s.resolveRegion(raw)
			if !ok {
				http.Error(w, fmt.Sprintf("unknown region %q", raw), http.StatusNotFound)
				return
			}
			regions = append(regions, id)
		}
	}

	sub := s.p.Analytics.Subscribe(regions)
	defer sub.Close()

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	h.Set("X-Accel-Buffering", "no") // proxies must not buffer the stream
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	enc := json.NewEncoder(w)
	// Keep-alive comments defeat idle proxy timeouts between deltas.
	keepAlive := time.NewTicker(25 * time.Second)
	defer keepAlive.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-keepAlive.C:
			if _, err := fmt.Fprint(w, ": keep-alive\n\n"); err != nil {
				return
			}
			flusher.Flush()
		case d, ok := <-sub.C():
			if !ok {
				fmt.Fprint(w, "event: evicted\ndata: {}\n\n")
				flusher.Flush()
				return
			}
			// Inert unless the delta carries a sampled trace. The fold span
			// already completed the trace; this one absorbs in as a late
			// span, extending the lineage to the subscriber's socket. On a
			// write error the unended span is silently discarded.
			sp := s.obs.tracer.Start(d.Trace, "sse_deliver")
			if _, err := fmt.Fprint(w, "data: "); err != nil {
				return
			}
			if err := enc.Encode(d); err != nil { // Encode appends the \n
				return
			}
			if _, err := fmt.Fprint(w, "\n"); err != nil {
				return
			}
			flusher.Flush()
			sp.End()
		}
	}
}
