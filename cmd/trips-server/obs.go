package main

import (
	"log/slog"
	"net/http"
	"net/http/pprof"
	"sync/atomic"
	"time"

	"trips/internal/analytics"
	"trips/internal/obs"
	"trips/internal/obs/trace"
	"trips/internal/online"
	"trips/internal/tripstore"
)

// serverObs is the server's observability surface: one registry backing
// GET /metrics, the per-layer instrument bundles handed to the subsystem
// constructors, the request middleware instruments, and the readiness
// flag. Counters the subsystems already maintain (engine/warehouse/
// analytics stats) are not duplicated here — registerBridges exposes them
// as pull-time CounterFunc/GaugeFunc bridges, so the hot paths stay
// untouched and /metrics can never drift from /stats.
type serverObs struct {
	reg  *obs.Registry
	http *obs.HTTPMetrics

	// tracer is the sampled end-to-end tracer behind /debug/traces; every
	// subsystem that records spans (middleware, ingest, online engine,
	// warehouse, analytics, SSE) shares this one instance.
	tracer *trace.Tracer

	online    *online.Metrics
	store     *tripstore.Metrics
	analytics *analytics.Metrics

	ingestRecords  *obs.Counter
	ingestErrors   *obs.Counter
	ingestRejected *obs.Counter
	ingestSeconds  *obs.Histogram

	autoRebuilds *obs.Counter

	// ready flips once load() finished translating the dataset, replaying
	// the warehouse, and bootstrapping the views — the /readyz gate.
	ready atomic.Bool
}

func newServerObs(tc trace.Config) *serverObs {
	reg := obs.NewRegistry()
	obs.RegisterRuntimeMetrics(reg, "trips")
	tracer := trace.New(tc)
	registerTraceBridges(reg, tracer)
	return &serverObs{
		reg:       reg,
		http:      obs.NewHTTPMetrics(reg, "trips"),
		tracer:    tracer,
		online:    online.NewMetrics(reg),
		store:     tripstore.NewMetrics(reg),
		analytics: analytics.NewMetrics(reg),
		ingestRecords: reg.Counter("trips_ingest_records_total",
			"Positioning records accepted by POST /ingest (parsed and routed to the engine)."),
		ingestErrors: reg.Counter("trips_ingest_errors_total",
			"POST /ingest requests rejected mid-stream (parse error, body cap, closed engine)."),
		ingestRejected: reg.Counter("trips_ingest_rejected_total",
			"POST /ingest requests pushed back with 429 + Retry-After on a full shard inbox."),
		ingestSeconds: reg.Histogram("trips_ingest_request_seconds",
			"POST /ingest end-to-end latency: body streaming, parsing, and engine routing.", nil),
		autoRebuilds: reg.Counter("trips_analytics_auto_rebuilds_total",
			"Automatic view rebuilds triggered by -auto-rebuild."),
	}
}

// registerTraceBridges exposes the tracer's own counters on /metrics.
func registerTraceBridges(r *obs.Registry, t *trace.Tracer) {
	r.CounterFunc("trips_trace_sampled_total",
		"Requests head-sampled (or forced via X-Trace-Id) into the tracer.",
		func() int64 { return t.Stats().Sampled })
	r.CounterFunc("trips_trace_kept_total",
		"Traces finalized into the in-memory ring.",
		func() int64 { return t.Stats().Kept })
	r.CounterFunc("trips_trace_evicted_total",
		"Completed traces evicted from the ring to make room.",
		func() int64 { return t.Stats().Evicted })
	r.GaugeFunc("trips_trace_ring_traces",
		"Completed traces currently held in the ring.",
		func() float64 { return float64(t.Stats().Ring) })
	r.GaugeFunc("trips_trace_pending_traces",
		"Traces with recorded spans still awaiting their terminal span or linger window.",
		func() float64 { return float64(t.Stats().Pending) })
}

// registerBridges exposes the subsystems' own counters on /metrics; call
// once, after load() opened the pipeline.
func (s *server) registerBridges() {
	r := s.obs.reg
	eng := s.p.Engine
	wh := s.p.Warehouse
	an := s.p.Analytics

	// Online translation engine.
	r.CounterFunc("trips_online_records_total",
		"Records admitted by the online engine.",
		func() int64 { return eng.Stats().RecordsIn })
	r.CounterFunc("trips_online_late_records_total",
		"Records dropped for arriving behind the seal frontier.",
		func() int64 { return eng.Stats().Late })
	r.CounterFunc("trips_online_duplicate_records_total",
		"Redelivered records (same device, same instant) collapsed to exactly-once.",
		func() int64 { return eng.Stats().Duplicates })
	r.CounterFunc("trips_online_backlogged_total",
		"TryIngest rejections on a full shard inbox (each became a 429 upstream).",
		func() int64 { return eng.Stats().Backlogged })
	r.CounterFunc("trips_online_triplets_total",
		"Sealed triplets emitted (complemented gap inferences included).",
		func() int64 { return eng.Stats().TripletsOut })
	r.CounterFunc("trips_online_inferred_triplets_total",
		"Emitted triplets produced by gap complementing.",
		func() int64 { return eng.Stats().Inferred })
	r.CounterFunc("trips_online_flushes_total",
		"Session flushes (clean+annotate recomputes over a tail).",
		func() int64 { return eng.Stats().Flushes })
	r.CounterFunc("trips_online_incremental_flushes_total",
		"Flushes that reused a stable cleaned prefix; divide by flushes_total for the cache-hit rate.",
		func() int64 { return eng.Stats().IncrementalFlushes })
	r.CounterFunc("trips_online_evidence_flushes_total",
		"Flushes started by a record reaching its session's seal point, ahead of the sweep and FlushEvery.",
		func() int64 { return eng.Stats().EvidenceFlushes })
	r.CounterFunc("trips_online_sealing_flushes_total",
		"Flushes that emitted at least one triplet; divide by flushes_total for the share of flush work that released output.",
		func() int64 { return eng.Stats().SealingFlushes })
	r.CounterFunc("trips_online_trims_total",
		"Hard-break tail trims.",
		func() int64 { return eng.Stats().Trims })
	r.CounterFunc("trips_online_forced_trims_total",
		"MaxTail-forced tail trims (exactness sacrificed for bounded memory).",
		func() int64 { return eng.Stats().ForcedTrims })
	r.CounterFunc("trips_online_forced_seals_total",
		"MaxTail horizon seals of sessions that never sealed naturally.",
		func() int64 { return eng.Stats().ForcedSeals })
	r.CounterFunc("trips_online_idle_finalized_total",
		"Sessions finalized and evicted by the idle timeout.",
		func() int64 { return eng.Stats().IdleFinalized })
	r.CounterFunc("trips_online_sessions_total",
		"Device sessions opened; a device returning after an idle eviction opens another.",
		func() int64 { return eng.Stats().Sessions })
	r.GaugeFunc("trips_online_open_sessions",
		"Device sessions open now: opened minus idle-evicted minus closed.",
		func() float64 { return float64(eng.Stats().OpenSessions) })
	r.GaugeFunc("trips_online_tail_records",
		"Records held in open sessions' tails; the engine heap scales with it.",
		func() float64 { return float64(eng.Stats().TailRecords) })
	r.GaugeFunc("trips_online_shard_backlog_records",
		"Records queued in shard inboxes, summed — the ingest lag proxy.",
		func() float64 {
			var sum int
			for _, d := range eng.Stats().ShardDepth {
				sum += d
			}
			return float64(sum)
		})

	// Trip warehouse.
	r.CounterFunc("trips_store_trips_total",
		"Trips stored in the warehouse.",
		func() int64 { return int64(wh.Stats().Trips) })
	r.CounterFunc("trips_store_duplicates_total",
		"Duplicate (device, start) inserts the warehouse dropped and did not forward to the views.",
		func() int64 { return int64(wh.Stats().Duplicates) })
	r.CounterFunc("trips_store_dropped_emissions_total",
		"Online emissions lost to a closed warehouse (nonzero = shutdown ordering bug).",
		func() int64 { return int64(wh.Stats().DroppedEmissions) })
	r.GaugeFunc("trips_store_devices",
		"Distinct devices with at least one warehoused trip.",
		func() float64 { return float64(wh.Stats().Devices) })
	r.GaugeFunc("trips_store_segments",
		"Segment-log files on disk (0 for memory-only).",
		func() float64 { return float64(wh.Stats().Segments) })
	r.GaugeFunc("trips_store_pending_log_records",
		"Trips buffered for the next segment write (0 for memory-only).",
		func() float64 { return float64(wh.Stats().PendingLog) })

	// Analytics views.
	r.CounterFunc("trips_analytics_trips_folded_total",
		"Sealed triplets folded into the materialized views.",
		func() int64 { return an.Stats().Trips })
	r.CounterFunc("trips_analytics_out_of_order_total",
		"Folds dropped for starting before their device's fold frontier — the backfill signal behind rebuild_recommended.",
		func() int64 { return an.Stats().OutOfOrder })
	r.CounterFunc("trips_analytics_late_buckets_total",
		"Triplets landing below the popularity ring's pruned frontier.",
		func() int64 { return an.Stats().LateBuckets })
	r.CounterFunc("trips_analytics_device_leaves_total",
		"Explicit departure signals folded (idle-finalized sessions).",
		func() int64 { return an.Stats().DeviceLeaves })
	r.CounterFunc("trips_analytics_subscriber_evictions_total",
		"Live subscribers evicted for not draining their delta buffer.",
		func() int64 { return an.Stats().Evicted })
	r.CounterFunc("trips_analytics_snapshot_errors_total",
		"Failed periodic view-snapshot writes.",
		func() int64 { return an.Stats().SnapshotErrors })
	r.GaugeFunc("trips_analytics_devices",
		"Devices tracked by the views.",
		func() float64 { return float64(an.Stats().Devices) })
	r.GaugeFunc("trips_analytics_subscribers",
		"Live SSE subscribers attached to the delta hub.",
		func() float64 { return float64(an.Stats().Subscribers) })
	r.GaugeFunc("trips_analytics_rebuild_recommended",
		"1 when the views dropped a backfill and POST /analytics/rebuild (or -auto-rebuild) should run.",
		func() float64 {
			if an.Stats().RebuildRecommended {
				return 1
			}
			return 0
		})
	r.GaugeFunc("trips_analytics_occupancy_devices",
		"Devices currently inside any region: the sum of the per-region occupancy counts.",
		func() float64 {
			total := 0
			for _, r := range an.Occupancy(0) {
				total += r.Occupancy
			}
			return float64(total)
		})
	r.GaugeFunc("trips_analytics_watermark_seconds",
		"Event-time view watermark (max folded triplet end) as a Unix timestamp; 0 before anything folded.",
		func() float64 {
			w := an.Watermark()
			if w.IsZero() {
				return 0
			}
			return float64(w.UnixMilli()) / 1000
		})
	r.GaugeFunc("trips_analytics_watermark_age_seconds",
		"Watermark lag: now minus the event-time watermark. Large by design when replaying historical datasets.",
		func() float64 {
			w := an.Watermark()
			if w.IsZero() {
				return 0
			}
			//trips:allow wallclock: watermark-lag gauge deliberately compares wall time to event time
			return time.Since(w).Seconds()
		})
	r.GaugeFunc("trips_analytics_snapshot_age_seconds",
		"Age of the newest durable view snapshot; 0 when snapshots are disabled or none exists.",
		func() float64 { return an.Stats().SnapshotAgeSeconds })
}

// checkRebuild inspects the views' RebuildRecommended signal once: it logs
// a warning on the false→true transition (either way), and with auto set
// it triggers the same path as POST /analytics/rebuild. The warning latch
// resets when the signal clears (a successful rebuild leaves views with
// zero dropped folds).
func (s *server) checkRebuild(auto bool) {
	st := s.p.Analytics.Stats()
	if !st.RebuildRecommended {
		s.rebuildWarned.Store(false)
		return
	}
	if !s.rebuildWarned.Swap(true) {
		slog.Warn("analytics views dropped a backfill; rebuild recommended",
			"outOfOrder", st.OutOfOrder, "autoRebuild", auto)
	}
	if !auto {
		return
	}
	//trips:allow wallclock: auto-rebuild duration metric
	start := time.Now()
	if err := s.p.Rebuild(); err != nil {
		slog.Error("auto-rebuild failed", "error", err)
		return
	}
	s.obs.autoRebuilds.Inc()
	s.rebuildWarned.Store(false)
	slog.Info("analytics views rebuilt automatically",
		"droppedFolds", st.OutOfOrder,
		"tripsFolded", s.p.Analytics.Stats().Trips,
		//trips:allow wallclock: auto-rebuild duration metric
		"duration", time.Since(start))
}

// watchRebuild polls checkRebuild until the context ends.
func (s *server) watchRebuild(done <-chan struct{}, every time.Duration, auto bool) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-done:
			return
		case <-t.C:
			s.checkRebuild(auto)
		}
	}
}

// debugMux serves net/http/pprof on the -debug-addr listener, kept off the
// public mux so profiling endpoints never ship to the serving port.
func debugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
