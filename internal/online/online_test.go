package online

import (
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"trips/internal/annotation"
	"trips/internal/cleaning"
	"trips/internal/complement"
	"trips/internal/dsm"
	"trips/internal/events"
	"trips/internal/geom"
	"trips/internal/position"
	"trips/internal/semantics"
	"trips/internal/testvenue"
)

var t0 = time.Date(2017, 1, 2, 10, 0, 0, 0, time.UTC)

// lcg is a tiny deterministic generator for test jitter.
type lcg uint64

func (g *lcg) next() float64 {
	*g = *g*6364136223846793005 + 1442695040888963407
	return float64(*g>>11) / float64(1<<53)
}

func stayRecords(g *lcg, dev position.DeviceID, center geom.Point, floor dsm.FloorID, start time.Time, n int, period time.Duration) []position.Record {
	out := make([]position.Record, 0, n)
	for i := 0; i < n; i++ {
		p := geom.Pt(center.X+(g.next()-0.5)*2, center.Y+(g.next()-0.5)*2)
		out = append(out, position.Record{Device: dev, P: p, Floor: floor,
			At: start.Add(time.Duration(i) * period)})
	}
	return out
}

func walkRecords(g *lcg, dev position.DeviceID, a, b geom.Point, floor dsm.FloorID, start time.Time, period time.Duration) []position.Record {
	dist := a.Dist(b)
	steps := int(dist/(1.4*period.Seconds())) + 1
	out := make([]position.Record, 0, steps+1)
	for i := 0; i <= steps; i++ {
		t := float64(i) / float64(steps)
		p := a.Lerp(b, t)
		p = geom.Pt(p.X+(g.next()-0.5)*0.8, p.Y+(g.next()-0.5)*0.8)
		out = append(out, position.Record{Device: dev, P: p, Floor: floor,
			At: start.Add(time.Duration(i) * period)})
	}
	return out
}

// testPipeline trains a stay/pass-by model on the two-floor test venue and
// assembles the full three-layer pipeline.
func testPipeline(t testing.TB) Pipeline {
	t.Helper()
	m := testvenue.MustTwoFloor()
	g := lcg(42)
	ed := events.NewEditor()
	base := t0
	for i := 0; i < 8; i++ {
		stay := stayRecords(&g, "tr", geom.Pt(5, 15), 1, base, 40, 5*time.Second)
		if err := ed.AddSegment(events.LabeledSegment{Event: semantics.EventStay, Device: "tr", Records: stay}); err != nil {
			t.Fatal(err)
		}
		pass := walkRecords(&g, "tr", geom.Pt(2, 5), geom.Pt(30, 5), 1, base, 5*time.Second)
		if err := ed.AddSegment(events.LabeledSegment{Event: semantics.EventPassBy, Device: "tr", Records: pass}); err != nil {
			t.Fatal(err)
		}
		base = base.Add(time.Hour)
	}
	em, err := annotation.TrainEventModel(ed.TrainingSet(), annotation.NewGaussianNB(), annotation.DefaultSplitConfig())
	if err != nil {
		t.Fatal(err)
	}
	return Pipeline{
		Model:        m,
		Cleaner:      cleaning.New(m),
		Annotator:    annotation.NewAnnotator(m, em, annotation.DefaultConfig()),
		Complementor: complement.NewComplementor(m, nil),
	}
}

// journey emits a shopper dwelling in Adidas, crossing the hall, and
// dwelling at the Cashier: roughly 20 minutes of records yielding a
// stay → pass-by → stay semantics sequence.
func journey(g *lcg, dev position.DeviceID, start time.Time) []position.Record {
	var out []position.Record
	add := func(rs []position.Record) {
		out = append(out, rs...)
		start = rs[len(rs)-1].At.Add(5 * time.Second)
	}
	add(stayRecords(g, dev, geom.Pt(5, 15), 1, start, 120, 5*time.Second))
	add(walkRecords(g, dev, geom.Pt(5, 7), geom.Pt(27, 7), 1, start, 2*time.Second))
	add(stayRecords(g, dev, geom.Pt(25, 15), 1, start, 120, 5*time.Second))
	return out
}

// batchTranslate runs the same components the way core.Translator's
// TranslateOne does (uniform-prior complementing), the baseline online
// output must reproduce.
func batchTranslate(pl Pipeline, recs []position.Record) []semantics.Triplet {
	seq := position.NewSequence(recs[0].Device)
	for _, r := range recs {
		seq.Append(r)
	}
	cleaned, _ := pl.Cleaner.Clean(seq)
	sem := pl.Annotator.Annotate(cleaned)
	if pl.Complementor != nil {
		comp := *pl.Complementor
		comp.UniformPrior = true
		sem, _ = comp.Complement(sem)
	}
	return sem.Triplets
}

// collectEmitter accumulates emissions per device; safe because tests use
// one shard per device of interest or read after Close.
type collectEmitter struct {
	byDev map[position.DeviceID][]semantics.Triplet
}

func newCollect() *collectEmitter {
	return &collectEmitter{byDev: make(map[position.DeviceID][]semantics.Triplet)}
}

func (c *collectEmitter) Emit(e Emission) {
	c.byDev[e.Device] = append(c.byDev[e.Device], e.Triplet)
}

// manualConfig disables timers so tests drive flushing explicitly.
func manualConfig(em Emitter, shards int) Config {
	return Config{
		Shards:        shards,
		FlushEvery:    16,
		FlushInterval: -1,
		IdleTimeout:   -1,
		Emitter:       em,
	}
}

func TestEngineValidation(t *testing.T) {
	pl := testPipeline(t)
	if _, err := NewEngine(pl, Config{}); err == nil {
		t.Error("nil emitter accepted")
	}
	bad := pl
	bad.Cleaner = nil
	if _, err := NewEngine(bad, manualConfig(newCollect(), 1)); err == nil {
		t.Error("nil cleaner accepted")
	}
	if _, err := NewEngine(Pipeline{}, manualConfig(newCollect(), 1)); err == nil {
		t.Error("empty pipeline accepted")
	}
}

func TestOnlineMatchesBatchSingleDevice(t *testing.T) {
	pl := testPipeline(t)
	g := lcg(7)
	recs := journey(&g, "dev-1", t0)
	want := batchTranslate(pl, recs)
	if len(want) < 3 {
		t.Fatalf("batch produced only %d triplets", len(want))
	}

	sink := newCollect()
	eng, err := NewEngine(pl, manualConfig(sink, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := eng.Ingest(r); err != nil {
			t.Fatal(err)
		}
	}
	eng.Flush()
	mid := eng.Stats()
	eng.Close()

	got := sink.byDev["dev-1"]
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("online/batch mismatch:\nonline: %v\nbatch:  %v", got, want)
	}
	// The 25-minute journey spans several horizons, so part of the output
	// must have sealed before Close.
	if mid.TripletsOut == 0 {
		t.Error("no triplet sealed before Close; incremental path untested")
	}
	if mid.TripletsOut >= int64(len(want)) {
		t.Errorf("all %d triplets sealed before Close; final-flush path untested", len(want))
	}
	st := eng.Stats()
	if st.RecordsIn != int64(len(recs)) || st.Late != 0 {
		t.Errorf("stats = %+v, want %d records, 0 late", st, len(recs))
	}
}

func TestHardBreakTrimsAndComplements(t *testing.T) {
	pl := testPipeline(t)
	g := lcg(9)
	first := journey(&g, "dev-1", t0)
	// A 30-minute dropout, then a second visit: wider than the horizon
	// (trim) and wider than the complementor's MaxGap (gap inference).
	second := journey(&g, "dev-1", first[len(first)-1].At.Add(30*time.Minute))
	recs := append(append([]position.Record{}, first...), second...)
	want := batchTranslate(pl, recs)

	sink := newCollect()
	eng, err := NewEngine(pl, manualConfig(sink, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := eng.Ingest(r); err != nil {
			t.Fatal(err)
		}
	}
	eng.Flush()
	if st := eng.Stats(); st.Trims == 0 {
		t.Error("no trim across a 30-minute break")
	}
	eng.Close()

	got := sink.byDev["dev-1"]
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("online/batch mismatch across break:\nonline: %v\nbatch:  %v", got, want)
	}
	inferred := 0
	for _, tr := range got {
		if tr.Inferred {
			inferred++
		}
	}
	if st := eng.Stats(); st.Inferred != int64(inferred) {
		t.Errorf("Inferred stat = %d, emitted %d inferred triplets", st.Inferred, inferred)
	}
}

// TestHardBreakTinyHeadMatchesBatch: after a hard break the trimmed tail
// starts with a tiny snippet — two hall records, then a second visit. In
// the batch sequence that snippet is not the head, so it stands alone; the
// online session must not merge it forward into the following stay as the
// tiny-head rule would for a true sequence head.
func TestHardBreakTinyHeadMatchesBatch(t *testing.T) {
	pl := testPipeline(t)
	g := lcg(9)
	recs := journey(&g, "dev-1", t0)
	back := recs[len(recs)-1].At.Add(30 * time.Minute)
	recs = append(recs,
		position.Record{Device: "dev-1", P: geom.Pt(15, 5), Floor: 1, At: back},
		position.Record{Device: "dev-1", P: geom.Pt(18, 5), Floor: 1, At: back.Add(2 * time.Second)})
	recs = append(recs, journey(&g, "dev-1", back.Add(7*time.Second))...)
	want := batchTranslate(pl, recs)
	standsAlone := false
	for _, tr := range want {
		if tr.From.Equal(back) && tr.Event == semantics.EventPassBy {
			standsAlone = true
		}
	}
	if !standsAlone {
		t.Fatalf("batch has no pass-by starting at the hall records; the scenario no longer tests the head rule: %v", want)
	}

	sink := newCollect()
	eng, err := NewEngine(pl, manualConfig(sink, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := eng.Ingest(r); err != nil {
			t.Fatal(err)
		}
	}
	eng.Flush()
	if st := eng.Stats(); st.Trims == 0 {
		t.Error("no trim across a 30-minute break")
	}
	eng.Close()

	if got := sink.byDev["dev-1"]; !reflect.DeepEqual(got, want) {
		t.Fatalf("online/batch mismatch after a tiny post-break head:\nonline: %v\nbatch:  %v", got, want)
	}
}

func TestLateRecordsDropped(t *testing.T) {
	pl := testPipeline(t)
	g := lcg(11)
	recs := journey(&g, "dev-1", t0)

	sink := newCollect()
	eng, err := NewEngine(pl, manualConfig(sink, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		eng.Ingest(r)
	}
	eng.Flush()
	if st := eng.Stats(); st.TripletsOut == 0 {
		t.Fatal("nothing sealed; late test needs a seal frontier")
	}
	// A record at the very start is far behind the seal frontier.
	late := recs[0]
	late.At = t0.Add(-time.Minute)
	eng.Ingest(late)
	eng.Flush()
	if st := eng.Stats(); st.Late != 1 {
		t.Errorf("Late = %d, want 1", st.Late)
	}
	eng.Close()
}

func TestIdleTimeoutSealsFinalTriplet(t *testing.T) {
	pl := testPipeline(t)
	g := lcg(13)
	recs := journey(&g, "dev-1", t0)
	want := batchTranslate(pl, recs)

	sink := newCollect()
	eng, err := NewEngine(pl, Config{
		Shards:        1,
		FlushInterval: 5 * time.Millisecond,
		IdleTimeout:   25 * time.Millisecond,
		Emitter:       sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		eng.Ingest(r)
	}
	// The watermark stalls at the last record, yet the idle timer must
	// finalize the session without Close.
	deadline := time.Now().Add(5 * time.Second)
	for eng.Stats().IdleFinalized == 0 {
		if time.Now().After(deadline) {
			t.Fatal("idle timeout never finalized the session")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := eng.Stats().TripletsOut; got != int64(len(want)) {
		t.Errorf("TripletsOut after idle finalize = %d, want %d", got, len(want))
	}
	eng.Close()
	if !reflect.DeepEqual(sink.byDev["dev-1"], want) {
		t.Error("idle-finalized output differs from batch")
	}
}

func TestSnapshotAndProvisional(t *testing.T) {
	pl := testPipeline(t)
	g := lcg(17)
	recs := journey(&g, "dev-1", t0)

	sink := newCollect()
	eng, err := NewEngine(pl, manualConfig(sink, 2))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		eng.Ingest(r)
	}
	eng.Flush()
	snap, ok := eng.Snapshot("dev-1")
	if !ok {
		t.Fatal("Snapshot: device not found")
	}
	if snap.TailRecords == 0 || len(snap.Provisional) == 0 {
		t.Errorf("snapshot has empty tail/provisional: %+v", snap)
	}
	if snap.Watermark != recs[len(recs)-1].At {
		t.Errorf("watermark = %v, want %v", snap.Watermark, recs[len(recs)-1].At)
	}
	if _, ok := eng.Snapshot("ghost"); ok {
		t.Error("Snapshot found a device that never reported")
	}
	eng.Close()
}

// closeSink is a closable sink: it counts emissions, Close calls, and
// emissions that arrive after Close. Emit runs on shard goroutines.
type closeSink struct {
	mu                     sync.Mutex
	emitted, closes, after int
}

func (c *closeSink) Emit(Emission) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.emitted++
	if c.closes > 0 {
		c.after++
	}
}

func (c *closeSink) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closes++
	return nil
}

func TestCloseSemantics(t *testing.T) {
	pl := testPipeline(t)
	sink := &closeSink{}
	eng, err := NewEngine(pl, manualConfig(sink, 2))
	if err != nil {
		t.Fatal(err)
	}
	g := lcg(19)
	for _, r := range journey(&g, "dev-1", t0) {
		eng.Ingest(r)
	}
	eng.Close()
	eng.Close() // idempotent
	if sink.emitted == 0 {
		t.Error("closable emitter saw no emissions before close")
	}
	if sink.closes != 1 || sink.after != 0 {
		t.Errorf("emitter closed %d times with %d emissions after; want closed once, last",
			sink.closes, sink.after)
	}
	if err := eng.Ingest(position.Record{Device: "dev-1", At: t0}); err != ErrClosed {
		t.Errorf("Ingest after Close = %v, want ErrClosed", err)
	}
	if _, ok := eng.Snapshot("dev-1"); ok {
		t.Error("Snapshot after Close succeeded")
	}
	eng.Flush() // must not panic or hang
}

// TestMaxTailBoundsStationaryDevice is the regression test for the
// ROADMAP's unbounded-session bug: a device dwelling in one region forever
// never seals a triplet (its single stay keeps extending to the
// watermark), so before the horizon force-seal, MaxTail never fired and
// the tail — and every flush's recompute — grew without bound. The test
// streams hours of a stationary device and asserts the tail stays bounded,
// the feed never turns late, and the emitted stays still cover the dwell.
func TestMaxTailBoundsStationaryDevice(t *testing.T) {
	pl := testPipeline(t)
	g := lcg(29)
	sink := newCollect()
	cfg := manualConfig(sink, 1)
	cfg.MaxTail = 200
	eng, err := NewEngine(pl, cfg)
	if err != nil {
		t.Fatal(err)
	}

	const n = 3000 // 5s period → ~4.2 hours pinned to one spot
	recs := stayRecords(&g, "couch", geom.Pt(5, 15), 1, t0, n, 5*time.Second)
	maxTail := 0
	for i, r := range recs {
		if err := eng.Ingest(r); err != nil {
			t.Fatal(err)
		}
		if i%50 == 49 {
			eng.Flush()
			if snap, ok := eng.Snapshot("couch"); ok && snap.TailRecords > maxTail {
				maxTail = snap.TailRecords
			}
		}
	}
	eng.Flush()
	st := eng.Stats()
	eng.Close()

	// The bound: MaxTail plus at most one flush batch of slack before the
	// force-seal runs. Without the fix the tail reaches n.
	if limit := cfg.MaxTail + cfg.FlushEvery; maxTail > limit {
		t.Errorf("tail reached %d records (limit %d): MaxTail does not bound a stationary session", maxTail, limit)
	}
	if st.ForcedSeals == 0 {
		t.Error("no forced seal on a session that never seals naturally")
	}
	// Force-sealing must not push the live feed behind the lateness
	// frontier — that would silently disconnect the device.
	if st.Late != 0 {
		t.Errorf("Late = %d: force-seal made the ongoing feed late", st.Late)
	}
	if st.RecordsIn != int64(n) {
		t.Errorf("RecordsIn = %d, want %d", st.RecordsIn, n)
	}

	// The dwell still emits, as consecutive stays covering the whole span
	// (the documented MaxTail exactness trade).
	got := sink.byDev["couch"]
	if len(got) < 2 {
		t.Fatalf("got %d triplets, want the dwell split into several stays", len(got))
	}
	span := recs[n-1].At.Sub(recs[0].At)
	var covered time.Duration
	for i, tr := range got {
		covered += tr.To.Sub(tr.From)
		if i > 0 && tr.From.Before(got[i-1].To) {
			t.Errorf("triplet %d overlaps its predecessor: %v < %v", i, tr.From, got[i-1].To)
		}
	}
	if covered < span*9/10 {
		t.Errorf("emitted stays cover %v of the %v dwell", covered, span)
	}
}

func TestShardingPreservesPerDeviceOrder(t *testing.T) {
	pl := testPipeline(t)
	devs := []position.DeviceID{"a", "b", "c", "d", "e", "f"}
	g := lcg(23)
	perDev := make(map[position.DeviceID][]position.Record)
	var all []position.Record
	for i, dev := range devs {
		rs := journey(&g, dev, t0.Add(time.Duration(i)*time.Minute))
		perDev[dev] = rs
		all = append(all, rs...)
	}
	// Interleave across devices in global time order, as a venue feed
	// would deliver.
	sort.SliceStable(all, func(i, j int) bool { return all[i].At.Before(all[j].At) })

	var mu sync.Mutex
	got := make(map[position.DeviceID][]Emission)
	eng, err := NewEngine(pl, Config{
		Shards:        4,
		FlushEvery:    16,
		FlushInterval: -1,
		IdleTimeout:   -1,
		Emitter: EmitterFunc(func(e Emission) {
			mu.Lock()
			got[e.Device] = append(got[e.Device], e)
			mu.Unlock()
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range all {
		if err := eng.Ingest(r); err != nil {
			t.Fatal(err)
		}
	}
	eng.Close()

	for _, dev := range devs {
		want := batchTranslate(pl, perDev[dev])
		ems := got[dev]
		if len(ems) != len(want) {
			t.Fatalf("device %s: %d emissions, want %d", dev, len(ems), len(want))
		}
		for i, em := range ems {
			if em.Seq != i {
				t.Fatalf("device %s: emission %d has Seq %d", dev, i, em.Seq)
			}
			if !reflect.DeepEqual(em.Triplet, want[i]) {
				t.Fatalf("device %s triplet %d mismatch:\nonline: %v\nbatch:  %v", dev, i, em.Triplet, want[i])
			}
		}
	}
}

// finalizeCollect is a collectEmitter that also records SessionFinalizer
// calls — the contract the analytics tee consumes.
type finalizeCollect struct {
	*collectEmitter
	mu        sync.Mutex
	finalized map[position.DeviceID]time.Time
}

func (f *finalizeCollect) FinalizeSession(dev position.DeviceID, at time.Time) {
	f.mu.Lock()
	f.finalized[dev] = at
	f.mu.Unlock()
}

func (f *finalizeCollect) get(dev position.DeviceID) (time.Time, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	at, ok := f.finalized[dev]
	return at, ok
}

// TestIdleFinalizeSignalsSessionFinalizer: the idle eviction notifies a
// finalizer-aware sink once, with the To of the device's last sealed
// triplet, after that triplet emitted; a plain Close must not.
func TestIdleFinalizeSignalsSessionFinalizer(t *testing.T) {
	pl := testPipeline(t)
	g := lcg(13)
	recs := journey(&g, "dev-1", t0)

	sink := &finalizeCollect{collectEmitter: newCollect(), finalized: make(map[position.DeviceID]time.Time)}
	eng, err := NewEngine(pl, Config{
		Shards:        1,
		FlushInterval: 5 * time.Millisecond,
		IdleTimeout:   25 * time.Millisecond,
		Emitter:       sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		eng.Ingest(r)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := sink.get("dev-1"); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("idle finalize never signaled the sink")
		}
		time.Sleep(5 * time.Millisecond)
	}
	at, _ := sink.get("dev-1")
	sink.mu.Lock()
	emitted := append([]semantics.Triplet(nil), sink.byDev["dev-1"]...)
	sink.mu.Unlock()
	if len(emitted) == 0 {
		t.Fatal("finalize signaled before any triplet emitted")
	}
	if last := emitted[len(emitted)-1].To; !at.Equal(last) {
		t.Errorf("finalize at %v, want the last sealed To %v", at, last)
	}
	eng.Close()
	if n := len(sink.finalized); n != 1 {
		t.Errorf("%d finalizations after Close, want 1 — Close must not signal departures", n)
	}
}
