package online

import (
	"hash/fnv"
	"io"
	"testing"
	"time"

	"trips/internal/obs"
	"trips/internal/obs/trace"
	"trips/internal/position"
)

// TestShardOfMatchesFNV locks the inlined FNV-1a to hash/fnv's New32a:
// shard assignment must not change across the inlining.
func TestShardOfMatchesFNV(t *testing.T) {
	pl := testPipeline(t)
	eng, err := NewEngine(pl, manualConfig(newCollect(), 7))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for _, dev := range []position.DeviceID{"", "a", "dev-1", "AA:BB:CC:DD:EE:FF", "日本語", "x\x00y"} {
		h := fnv.New32a()
		io.WriteString(h, string(dev))
		want := eng.shards[h.Sum32()%uint32(len(eng.shards))]
		if got := eng.shardOf(dev); got != want {
			t.Errorf("shardOf(%q) = shard %d, fnv.New32a says %d", dev, got.id, want.id)
		}
	}
}

// TestIngestRouteZeroAlloc is the hot-path guard: routing one record —
// shardOf, the RLock, the channel send, and the shard-side drop of a late
// record — must not allocate. The records are late on purpose so the
// shard-side handling is deterministic O(1) work; admitted records
// additionally pay (amortized) tail growth, which is the session's cost,
// not the route's.
//
//trips:guards Engine.Ingest
//trips:guards Engine.route
//trips:guards Engine.shardOf
func TestIngestRouteZeroAlloc(t *testing.T) {
	pl := testPipeline(t)
	g := lcg(3)
	sink := newCollect()
	cfg := manualConfig(sink, 2)
	cfg.QueueLen = 4096
	eng, err := NewEngine(pl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	// Seal something so a backdated record is dropped as late.
	for _, r := range journey(&g, "dev-1", t0) {
		if err := eng.Ingest(r); err != nil {
			t.Fatal(err)
		}
	}
	eng.Flush()
	if eng.Stats().TripletsOut == 0 {
		t.Fatal("nothing sealed; the late-drop path needs a seal frontier")
	}
	late := position.Record{Device: "dev-1", At: t0.Add(-time.Hour)}
	if avg := testing.AllocsPerRun(500, func() {
		if err := eng.Ingest(late); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("Ingest route path allocates %.1f times per record, want 0", avg)
	}
	if avg := testing.AllocsPerRun(500, func() {
		eng.shardOf("AA:BB:CC:DD:EE:FF")
	}); avg != 0 {
		t.Errorf("shardOf allocates %.1f times per call, want 0", avg)
	}
}

// TestIngestRouteZeroAllocInstrumented re-runs the hot-path guard with the
// full observability stack enabled: stage-timing metrics on the engine, a
// tracer wired in (sampling at 0, the production default posture), and a
// freshness-observing sink. Instrumentation lives at flush granularity and
// tracing gates everything on the record's sampled flag, so the per-record
// route — including TryIngest with the unsampled context that every
// untraced request carries — must stay at zero allocations; this
// test is the contract that keeps it there. (AllocsPerRun reads the global
// allocation counter, so like the plain guard it measures the
// deterministic late-drop route; admitted records trigger concurrent
// shard-side flush work whose legitimate allocations would drown the
// signal.)
//
//trips:guards Engine.TryIngest
func TestIngestRouteZeroAllocInstrumented(t *testing.T) {
	pl := testPipeline(t)
	g := lcg(9)
	fresh := obs.NewRegistry().Histogram("test_freshness_seconds", "f", obs.FreshnessBounds)
	sink := EmitterFunc(func(em Emission) {
		if !em.ArrivedAt.IsZero() {
			fresh.ObserveSince(em.ArrivedAt)
		}
	})
	cfg := manualConfig(sink, 2)
	cfg.QueueLen = 8192
	cfg.Metrics = NewMetrics(obs.NewRegistry())
	cfg.Tracer = trace.New(trace.Config{SampleRate: 0})
	eng, err := NewEngine(pl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	recs := journey(&g, "dev-1", t0)
	for _, r := range recs {
		if err := eng.Ingest(r); err != nil {
			t.Fatal(err)
		}
	}
	eng.Flush()
	if eng.Stats().TripletsOut == 0 {
		t.Fatal("nothing sealed; the late-drop path needs a seal frontier")
	}
	late := position.Record{Device: "dev-1", At: t0.Add(-time.Hour)}
	if avg := testing.AllocsPerRun(500, func() {
		if err := eng.Ingest(late); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("instrumented late-record route allocates %.1f times per record, want 0", avg)
	}
	// The traced entry point with an unsampled context is the same route:
	// tracing must cost nothing until a request is actually sampled.
	unsampled := cfg.Tracer.Sample()
	if unsampled.Sampled() {
		t.Fatal("sample rate 0 produced a sampled context")
	}
	if avg := testing.AllocsPerRun(500, func() {
		if err := eng.TryIngest(late, unsampled); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("TryIngest unsampled route allocates %.1f times per record, want 0", avg)
	}
	// Stage histograms filled during the seal-inducing preamble, and every
	// sealed emission carried an arrival stamp the sink turned into a
	// freshness observation.
	if cfg.Metrics.CleanSeconds.Count() == 0 || cfg.Metrics.AnnotateSeconds.Count() == 0 ||
		cfg.Metrics.SealSeconds.Count() == 0 {
		t.Error("flush-stage histograms saw no observations")
	}
	if fresh.Count() == 0 {
		t.Error("freshness histogram saw no ArrivedAt-stamped emissions")
	}
}
