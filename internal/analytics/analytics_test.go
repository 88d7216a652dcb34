package analytics

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"trips/internal/core"
	"trips/internal/dsm"
	"trips/internal/online"
	"trips/internal/position"
	"trips/internal/semantics"
	"trips/internal/tripstore"
)

var t0 = time.Date(2017, 1, 2, 10, 0, 0, 0, time.UTC)

// trip builds a stay triplet in region r (tag = upper-cased id for
// visibility) covering [start, start+dur).
func trip(r string, start time.Time, dur time.Duration) semantics.Triplet {
	return semantics.Triplet{
		Event:    semantics.EventStay,
		Region:   "tag-" + r,
		RegionID: dsm.RegionID(r),
		From:     start,
		To:       start.Add(dur),
	}
}

func TestOccupancyMovesDevices(t *testing.T) {
	e := New(Config{Shards: 4})
	e.IngestTrip("a", trip("nike", t0, time.Minute))
	e.IngestTrip("b", trip("nike", t0.Add(time.Minute), time.Minute))
	e.IngestTrip("c", trip("hall", t0, 30*time.Second))

	occ := e.Occupancy(0)
	byID := map[dsm.RegionID]RegionOccupancy{}
	for _, o := range occ {
		byID[o.RegionID] = o
	}
	if byID["nike"].Occupancy != 2 || byID["nike"].Visits != 2 {
		t.Errorf("nike = %+v, want occupancy 2, visits 2", byID["nike"])
	}
	if byID["nike"].Region != "tag-nike" {
		t.Errorf("nike tag = %q", byID["nike"].Region)
	}
	if byID["hall"].Occupancy != 1 {
		t.Errorf("hall = %+v", byID["hall"])
	}

	// Device a moves on: occupancy shifts, visits accumulate.
	e.IngestTrip("a", trip("hall", t0.Add(2*time.Minute), time.Minute))
	occ = e.Occupancy(0)
	byID = map[dsm.RegionID]RegionOccupancy{}
	for _, o := range occ {
		byID[o.RegionID] = o
	}
	if byID["nike"].Occupancy != 1 || byID["hall"].Occupancy != 2 {
		t.Errorf("after move: nike=%+v hall=%+v", byID["nike"], byID["hall"])
	}

	// A region-less triplet takes the device out of every region.
	e.IngestTrip("a", semantics.Triplet{Event: semantics.EventUnknown,
		From: t0.Add(3 * time.Minute), To: t0.Add(4 * time.Minute)})
	byID = map[dsm.RegionID]RegionOccupancy{}
	for _, o := range e.Occupancy(0) {
		byID[o.RegionID] = o
	}
	if byID["hall"].Occupancy != 1 {
		t.Errorf("region-less triplet did not vacate: hall=%+v", byID["hall"])
	}
	if st := e.Stats(); st.Regionless != 1 {
		t.Errorf("Regionless = %d, want 1", st.Regionless)
	}
}

func TestOccupancyActiveWithin(t *testing.T) {
	e := New(Config{Shards: 2})
	e.IngestTrip("old", trip("nike", t0, time.Minute))
	e.IngestTrip("new", trip("nike", t0.Add(time.Hour), time.Minute))
	if occ := e.Occupancy(0); occ[0].Occupancy != 2 {
		t.Fatalf("unfiltered occupancy = %+v", occ)
	}
	// Only "new" ended within 10 minutes of the watermark.
	occ := e.Occupancy(10 * time.Minute)
	if len(occ) != 1 || occ[0].Occupancy != 1 {
		t.Errorf("staleness-filtered occupancy = %+v, want 1 device", occ)
	}
}

func TestFlows(t *testing.T) {
	e := New(Config{Shards: 4})
	at := t0
	path := []string{"a", "b", "a", "b", "c"}
	for _, r := range path {
		e.IngestTrip("dev", trip(r, at, time.Minute))
		at = at.Add(2 * time.Minute)
	}
	// A region-less triplet must not break the chain: c → d still counts.
	e.IngestTrip("dev", semantics.Triplet{From: at, To: at.Add(time.Minute)})
	at = at.Add(2 * time.Minute)
	e.IngestTrip("dev", trip("d", at, time.Minute))
	// Consecutive same-region triplets are not transitions.
	e.IngestTrip("dev", trip("d", at.Add(2*time.Minute), time.Minute))

	flows := e.Flows("", 0)
	got := map[string]int64{}
	for _, f := range flows {
		got[string(f.From)+">"+string(f.To)] = f.Count
	}
	want := map[string]int64{"a>b": 2, "b>a": 1, "b>c": 1, "c>d": 1}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flows = %v, want %v", got, want)
	}

	// Region filter keeps transitions touching either side.
	cOnly := e.Flows("c", 0)
	if len(cOnly) != 2 {
		t.Errorf("Flows(c) = %+v, want b>c and c>d", cOnly)
	}
	if top := e.Flows("", 1); len(top) != 1 || top[0].Count != 2 {
		t.Errorf("Flows limit=1 = %+v", top)
	}
}

func TestDwellQuantiles(t *testing.T) {
	e := New(Config{Shards: 4})
	at := t0
	// 100 stays of 10s and one 30-minute outlier, spread across devices.
	for i := 0; i < 100; i++ {
		dev := position.DeviceID(fmt.Sprintf("d%02d", i%8))
		e.IngestTrip(dev, trip("nike", at, 10*time.Second))
		at = at.Add(time.Minute)
	}
	e.IngestTrip("outlier", trip("nike", at, 30*time.Minute))

	st, ok := e.Dwell("nike")
	if !ok {
		t.Fatal("no dwell stats for nike")
	}
	if st.Count != 101 {
		t.Errorf("Count = %d", st.Count)
	}
	if st.P50 > 15*time.Second {
		t.Errorf("P50 = %v, want ≈10s", st.P50)
	}
	if st.P99 < 10*time.Second || st.P99 > 30*time.Minute {
		t.Errorf("P99 = %v out of range", st.P99)
	}
	if st.Max != 30*time.Minute {
		t.Errorf("Max = %v", st.Max)
	}
	wantMean := (100*10*time.Second + 30*time.Minute) / 101
	if st.Mean != wantMean {
		t.Errorf("Mean = %v, want %v", st.Mean, wantMean)
	}
	var total int64
	for _, b := range st.Buckets {
		total += b.Count
	}
	if total != st.Count {
		t.Errorf("bucket sum %d ≠ count %d", total, st.Count)
	}
	if _, ok := e.Dwell("ghost"); ok {
		t.Error("Dwell found a region never ingested")
	}
}

func TestTopKWindow(t *testing.T) {
	e := New(Config{Shards: 2, BucketWidth: time.Minute, Buckets: 120})
	// Hour one: region "early" is hot. Hour two: region "late".
	for i := 0; i < 30; i++ {
		e.IngestTrip(position.DeviceID(fmt.Sprintf("e%d", i)), trip("early", t0.Add(time.Duration(i)*time.Minute), 30*time.Second))
	}
	for i := 0; i < 10; i++ {
		e.IngestTrip(position.DeviceID(fmt.Sprintf("l%d", i)), trip("late", t0.Add(time.Hour+time.Duration(i)*time.Minute), 30*time.Second))
	}

	// Whole retained span: both regions, "early" on top.
	all := e.TopK(0, 0)
	if len(all) != 2 || all[0].RegionID != "early" || all[0].Count != 30 {
		t.Fatalf("TopK full = %+v", all)
	}
	// Last 15 minutes of event time: only "late".
	recent := e.TopK(5, 15*time.Minute)
	if len(recent) != 1 || recent[0].RegionID != "late" || recent[0].Count != 10 {
		t.Errorf("TopK 15m = %+v", recent)
	}
	// k truncates.
	if top1 := e.TopK(1, 0); len(top1) != 1 {
		t.Errorf("TopK k=1 = %+v", top1)
	}
}

func TestRingPrunesBeyondRetention(t *testing.T) {
	e := New(Config{Shards: 1, BucketWidth: time.Minute, Buckets: 10})
	e.IngestTrip("a", trip("old", t0, 30*time.Second))
	// Advance the watermark far past the ring span.
	e.IngestTrip("a", trip("new", t0.Add(time.Hour), 30*time.Second))
	if all := e.TopK(0, 0); len(all) != 1 || all[0].RegionID != "new" {
		t.Errorf("TopK after pruning = %+v, want only new", all)
	}
	// A triplet landing below the pruning frontier is dropped and counted.
	e.IngestTrip("b", trip("old", t0, 30*time.Second))
	if st := e.Stats(); st.LateBuckets != 1 {
		t.Errorf("LateBuckets = %d, want 1", st.LateBuckets)
	}
	if all := e.TopK(0, 0); len(all) != 1 {
		t.Errorf("late bucket resurrected: %+v", all)
	}
	// The visits counter still saw it: pruning bounds the ring, not totals.
	occ := e.Occupancy(0)
	var visits int64
	for _, o := range occ {
		visits += o.Visits
	}
	if visits != 3 {
		t.Errorf("total visits = %d, want 3", visits)
	}
}

func TestOutOfOrderAndDuplicatesSkipped(t *testing.T) {
	e := New(Config{Shards: 1})
	e.IngestTrip("a", trip("r2", t0.Add(time.Hour), time.Minute))
	e.IngestTrip("a", trip("r1", t0, time.Minute))                // behind the device frontier
	e.IngestTrip("a", trip("r2", t0.Add(time.Hour), time.Minute)) // duplicate (device, From)
	st := e.Stats()
	if st.OutOfOrder != 1 || !st.RebuildRecommended || st.Trips != 1 {
		t.Errorf("stats = %+v, want the backfill dropped and counted, the duplicate skipped, 1 trip", st)
	}
	if occ := e.Occupancy(0); len(occ) != 1 || occ[0].RegionID != "r2" || occ[0].Visits != 1 {
		t.Errorf("dropped triplets mutated views: %+v", occ)
	}
}

// synthTrips builds a deterministic multi-device corpus: devices walk
// pseudo-random region paths with varying dwell times, including inferred
// and region-less triplets.
func synthTrips(devices, perDevice int) map[position.DeviceID][]semantics.Triplet {
	regions := []string{"r0", "r1", "r2", "r3", "r4", "r5", "r6", "r7"}
	out := make(map[position.DeviceID][]semantics.Triplet)
	st := uint64(1)
	next := func(mod int) int {
		st = st*6364136223846793005 + 1442695040888963407
		return int((st >> 33) % uint64(mod))
	}
	for d := 0; d < devices; d++ {
		dev := position.DeviceID(fmt.Sprintf("dev-%02d", d))
		at := t0.Add(time.Duration(next(600)) * time.Second)
		for i := 0; i < perDevice; i++ {
			dur := time.Duration(5+next(600)) * time.Second
			tr := trip(regions[next(len(regions))], at, dur)
			switch next(10) {
			case 0:
				tr.Inferred = true
			case 1:
				tr.Region, tr.RegionID = "", ""
			}
			out[dev] = append(out[dev], tr)
			at = tr.To.Add(time.Duration(next(120)) * time.Second)
		}
	}
	return out
}

// TestBootstrapMatchesLive is the equivalence property at the package
// level: folding the corpus per-device through a warehouse replay
// (Bootstrap) reaches exactly the state that live, interleaved ingestion
// builds — including ring pruning, whose frontier only depends on the
// final watermark.
func TestBootstrapMatchesLive(t *testing.T) {
	corpus := synthTrips(12, 40)

	// Live: globally time-interleaved arrival, as the online engine's
	// shards would deliver.
	type arrival struct {
		dev position.DeviceID
		tr  semantics.Triplet
	}
	var live []arrival
	idx := make(map[position.DeviceID]int)
	for {
		var pick position.DeviceID
		for dev, ts := range corpus {
			if idx[dev] >= len(ts) {
				continue
			}
			if pick == "" || ts[idx[dev]].From.Before(corpus[pick][idx[pick]].From) {
				pick = dev
			}
		}
		if pick == "" {
			break
		}
		live = append(live, arrival{pick, corpus[pick][idx[pick]]})
		idx[pick]++
	}
	liveEng := New(Config{Shards: 4, BucketWidth: 30 * time.Second, Buckets: 100})
	for _, a := range live {
		liveEng.IngestTrip(a.dev, a.tr)
	}

	// Bootstrap: warehouse replay, device by device.
	w, err := tripstore.New(tripstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for dev, ts := range corpus {
		for i, tr := range ts {
			if err := w.Insert(tripstore.Trip{Device: dev, Seq: i, Triplet: tr}); err != nil {
				t.Fatal(err)
			}
		}
	}
	bootEng := New(Config{Shards: 4, BucketWidth: 30 * time.Second, Buckets: 100})
	if err := bootEng.Bootstrap(w); err != nil {
		t.Fatal(err)
	}

	liveSnap, bootSnap := liveEng.Snapshot(), bootEng.Snapshot()
	if !reflect.DeepEqual(liveSnap, bootSnap) {
		t.Errorf("bootstrap state diverges from live ingestion:\nlive: %+v\nboot: %+v", liveSnap, bootSnap)
	}
	// The corpus must actually exercise the views.
	if liveSnap.Trips == 0 || len(liveSnap.Flows) == 0 || len(liveSnap.Ring) == 0 || len(liveSnap.Dwell) == 0 {
		t.Errorf("degenerate corpus: %+v", liveSnap)
	}
	// Ring pruning must have happened for the property to mean anything:
	// the corpus spans hours of event time, far more than the 100 × 30s
	// retention, so the earliest buckets cannot have survived.
	earliest := liveSnap.Watermark
	for _, ts := range corpus {
		if ts[0].From.Before(earliest) {
			earliest = ts[0].From
		}
	}
	if first := liveSnap.Ring[0].Start; !first.After(earliest) {
		t.Errorf("ring never pruned: first bucket %v at corpus start %v", first, earliest)
	}
}

func TestSubscriptionFilterAndDelta(t *testing.T) {
	e := New(Config{Shards: 2})
	all := e.Subscribe(nil)
	nikeOnly := e.Subscribe([]dsm.RegionID{"nike"})
	defer all.Close()
	defer nikeOnly.Close()

	e.IngestTrip("a", trip("nike", t0, time.Minute))
	e.IngestTrip("a", trip("hall", t0.Add(2*time.Minute), time.Minute))

	d1 := <-all.C()
	if d1.RegionID != "nike" || d1.Occupancy != 1 || d1.Device != "a" {
		t.Errorf("delta 1 = %+v", d1)
	}
	d2 := <-all.C()
	if d2.RegionID != "hall" || d2.PrevRegionID != "nike" || d2.PrevOccupancy != 0 {
		t.Errorf("delta 2 = %+v", d2)
	}

	// The filtered subscriber sees the entry and the departure (nike is the
	// previous region of delta 2) — then nothing for foreign regions.
	<-nikeOnly.C()
	d := <-nikeOnly.C()
	if d.PrevRegionID != "nike" {
		t.Errorf("filtered delta = %+v", d)
	}
	e.IngestTrip("b", trip("hall", t0.Add(5*time.Minute), time.Minute))
	select {
	case d := <-nikeOnly.C():
		t.Errorf("filtered subscriber got foreign delta %+v", d)
	default:
	}
}

func TestSlowSubscriberEvicted(t *testing.T) {
	e := New(Config{Shards: 1})
	slow := e.Subscribe(nil)
	for i := 0; i < subscriberBuffer+6; i++ {
		e.IngestTrip("a", trip("nike", t0.Add(time.Duration(i)*time.Minute), 30*time.Second))
	}
	// More deltas than the buffer holds: the subscriber must have been
	// evicted and its channel closed after the buffered prefix.
	n := 0
	for range slow.C() {
		n++
	}
	if n != subscriberBuffer {
		t.Errorf("drained %d deltas before close, want the %d buffered", n, subscriberBuffer)
	}
	if !slow.Evicted() {
		t.Error("Evicted() = false after forced close")
	}
	st := e.Stats()
	if st.Subscribers != 0 || st.Evicted != 1 {
		t.Errorf("hub stats = %+v", st)
	}
	// Close after eviction must not panic.
	slow.Close()
}

// closeSink is a closable downstream emitter for the tee test.
type closeSink struct {
	got    []online.Emission
	closed bool
}

func (c *closeSink) Emit(e online.Emission) { c.got = append(c.got, e) }
func (c *closeSink) Close() error           { c.closed = true; return nil }

func TestIngestResultAndEmitterTee(t *testing.T) {
	e := New(Config{Shards: 2})
	seq := semantics.NewSequence("dev")
	seq.Append(trip("a", t0, time.Minute))
	seq.Append(trip("b", t0.Add(2*time.Minute), time.Minute))
	if err := e.IngestResult(core.Result{Device: "dev", Final: seq}); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Trips != 2 {
		t.Fatalf("IngestResult folded %d trips", st.Trips)
	}
	if err := e.IngestResult(core.Result{Device: "empty"}); err != nil {
		t.Fatal(err)
	}

	// The emitter tee folds and forwards.
	next := &closeSink{}
	em := e.Emitter(next)
	em.Emit(online.Emission{Device: "dev", Seq: 2, Triplet: trip("c", t0.Add(4*time.Minute), time.Minute)})
	if st := e.Stats(); st.Trips != 3 {
		t.Errorf("tee did not fold: %d trips", st.Trips)
	}
	if len(next.got) != 1 || next.got[0].Triplet.RegionID != "c" {
		t.Errorf("tee did not forward: %+v", next.got)
	}
	// Closing the tee closes the downstream emitter.
	if err := em.(interface{ Close() error }).Close(); err != nil {
		t.Fatal(err)
	}
	if !next.closed {
		t.Error("downstream emitter not closed by tee")
	}
	// A tee with no downstream is fine.
	e.Emitter(nil).Emit(online.Emission{Device: "dev", Triplet: trip("d", t0.Add(6*time.Minute), time.Minute)})
}

// TestRingPrunesAgainstGlobalWatermark: a device that lags the watermark
// prunes (and drops) popularity buckets relative to the engine-wide
// watermark, not its own progress, so the ring never retains more history
// than the configured window.
func TestRingPrunesAgainstGlobalWatermark(t *testing.T) {
	e := New(Config{BucketWidth: time.Minute, Buckets: 10})
	const ahead, lagging = position.DeviceID("dev-a"), position.DeviceID("dev-b")

	// The lagging device folds one old bucket, then the other races three
	// hours ahead — far beyond the 10-minute ring span.
	e.IngestTrip(lagging, trip("old", t0, 30*time.Second))
	e.IngestTrip(ahead, trip("new", t0.Add(3*time.Hour), 30*time.Second))

	// The lagging device's next fold is still near t0; the watermark says
	// both of its buckets are ancient history: the retained one must be
	// pruned and the new arrival dropped as a late bucket.
	e.IngestTrip(lagging, trip("old", t0.Add(2*time.Minute), 30*time.Second))

	if st := e.Stats(); st.LateBuckets != 1 {
		t.Errorf("LateBuckets = %d, want 1 (arrival below the global frontier)", st.LateBuckets)
	}
	snap := e.Snapshot()
	if len(snap.Ring) != 1 || snap.Ring[0].Regions[0].RegionID != "new" {
		t.Errorf("dump ring = %+v, want only the ahead bucket", snap.Ring)
	}
	// TopK agrees: only the ahead region is inside any window.
	if all := e.TopK(0, 0); len(all) != 1 || all[0].RegionID != "new" {
		t.Errorf("TopK = %+v", all)
	}
}

// TestDeltaOccupancyIsRegionWide: the occupancy a delta carries is the
// region's real device count — what Occupancy() reports — for entries and
// for departures, not a share of it.
func TestDeltaOccupancyIsRegionWide(t *testing.T) {
	e := New(Config{Shards: 4})
	sub := e.Subscribe(nil)
	defer sub.Close()

	const n = 8
	dev := func(i int) position.DeviceID { return position.DeviceID(fmt.Sprintf("dev-%d", i)) }
	for k := 1; k <= n; k++ {
		e.IngestTrip(dev(k), trip("nike", t0.Add(time.Duration(k)*time.Second), time.Minute))
		if d := <-sub.C(); d.RegionID != "nike" || d.Occupancy != k {
			t.Errorf("entry %d: delta %+v, want Occupancy %d", k, d, k)
		}
	}
	for k := 1; k <= n; k++ {
		e.DeviceLeft(dev(k), t0.Add(time.Hour))
		if d := <-sub.C(); d.PrevRegionID != "nike" || d.PrevOccupancy != n-k {
			t.Errorf("departure %d: delta %+v, want PrevOccupancy %d", k, d, n-k)
		}
	}
}

// TestDeviceLeftDecaysOccupancy covers the explicit departure signal: it
// vacates the device's region by evidence, publishes a delta, is
// idempotent, and leaves the sealed-trip fold untouched (the frontier
// does not move, so duplicates still dedupe and the next trip folds
// normally).
func TestDeviceLeftDecaysOccupancy(t *testing.T) {
	e := New(Config{Shards: 2})
	sub := e.Subscribe(nil)
	defer sub.Close()

	e.IngestTrip("a", trip("nike", t0, time.Minute))
	e.IngestTrip("b", trip("hall", t0.Add(time.Minute), time.Minute))
	<-sub.C()
	<-sub.C()

	at := t0.Add(10 * time.Minute)
	e.DeviceLeft("a", at)
	byID := map[dsm.RegionID]RegionOccupancy{}
	for _, o := range e.Occupancy(0) {
		byID[o.RegionID] = o
	}
	if byID["nike"].Occupancy != 0 || byID["nike"].Visits != 1 || byID["hall"].Occupancy != 1 {
		t.Fatalf("occupancy after leave = %+v, want nike vacated, visits intact", byID)
	}
	d := <-sub.C()
	if d.Event != EventDeviceLeft || d.Device != "a" || d.PrevRegionID != "nike" ||
		d.PrevOccupancy != 0 || !d.From.Equal(at) {
		t.Errorf("leave delta = %+v", d)
	}
	if st := e.Stats(); st.DeviceLeaves != 1 {
		t.Errorf("DeviceLeaves = %d, want 1", st.DeviceLeaves)
	}

	// Idempotent: the device is already nowhere; so is a ghost device.
	e.DeviceLeft("a", at.Add(time.Minute))
	e.DeviceLeft("ghost", at)
	if st := e.Stats(); st.DeviceLeaves != 1 {
		t.Errorf("repeated leave counted: DeviceLeaves = %d", st.DeviceLeaves)
	}

	// The sealed-trip fold stays idempotent around the signal: the same
	// trip re-delivered is still the one the device holds (not folded, not
	// a backfill, and it does not move the device back in), and a
	// genuinely new trip moves the device back in.
	e.IngestTrip("a", trip("nike", t0, time.Minute))
	if st := e.Stats(); st.OutOfOrder != 0 || st.Trips != 2 {
		t.Errorf("duplicate after leave folded or counted: %+v", st)
	}
	for _, o := range e.Occupancy(0) {
		if o.RegionID == "nike" && (o.Occupancy != 0 || o.Visits != 1) {
			t.Errorf("duplicate after leave folded into nike: %+v", o)
		}
	}
	e.IngestTrip("a", trip("hall", t0.Add(20*time.Minute), time.Minute))
	byID = map[dsm.RegionID]RegionOccupancy{}
	for _, o := range e.Occupancy(0) {
		byID[o.RegionID] = o
	}
	if byID["hall"].Occupancy != 2 || byID["nike"].Occupancy != 0 {
		t.Errorf("occupancy after return = %+v", byID)
	}
}

// TestRebuildKeepsSubscribers: Rebuild re-derives the views in place, so the
// engine's folds keep flowing to the subscribers attached before it.
func TestRebuildKeepsSubscribers(t *testing.T) {
	w, err := tripstore.New(tripstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range []semantics.Triplet{
		trip("r1", t0, time.Minute),
		trip("r2", t0.Add(2*time.Minute), time.Minute),
	} {
		if err := w.Insert(tripstore.Trip{Device: "dev", Seq: i, Triplet: tr}); err != nil {
			t.Fatal(err)
		}
	}

	e := New(Config{Shards: 2})
	// Fold out of order so the engine drops a trip and recommends a
	// rebuild — the situation Rebuild exists for.
	e.IngestTrip("dev", trip("r2", t0.Add(2*time.Minute), time.Minute))
	e.IngestTrip("dev", trip("r1", t0, time.Minute))
	if st := e.Stats(); !st.RebuildRecommended || st.Trips != 1 {
		t.Fatalf("setup: %+v", st)
	}
	sub := e.Subscribe(nil)
	defer sub.Close()

	if err := e.Rebuild(w); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Trips != 2 || st.OutOfOrder != 0 || st.RebuildRecommended || st.Subscribers != 1 {
		t.Errorf("rebuilt stats = %+v, want both trips, nothing dropped, the subscriber kept", st)
	}
	// The bootstrap replay published nothing to the hub...
	select {
	case d := <-sub.C():
		t.Fatalf("subscriber saw a historical delta during rebuild: %+v", d)
	default:
	}
	// ...but a live fold after the rebuild reaches the subscriber.
	e.IngestTrip("dev", trip("r3", t0.Add(10*time.Minute), time.Minute))
	select {
	case d := <-sub.C():
		if d.RegionID != "r3" {
			t.Errorf("post-rebuild delta = %+v", d)
		}
	case <-time.After(2 * time.Second):
		t.Error("subscriber lost across rebuild")
	}
}

// TestRebuildSkipsInFlightOverlap: a trip that is warehoused but not yet
// folded when a rebuild swaps is folded by the rebuild and delivered live
// right after. That delivery, and any later one of the same trip, lands on
// the rebuilt frontier: the trip the device already holds, neither folded
// again nor counted.
func TestRebuildSkipsInFlightOverlap(t *testing.T) {
	w, err := tripstore.New(tripstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	stored := trip("r1", t0, time.Minute)
	inFlight := trip("r2", t0.Add(2*time.Minute), time.Minute)
	for i, tr := range []semantics.Triplet{stored, inFlight} {
		if err := w.Insert(tripstore.Trip{Device: "dev", Seq: i, Triplet: tr}); err != nil {
			t.Fatal(err)
		}
	}
	e := New(Config{Shards: 2})
	e.IngestTrip("dev", stored)
	if err := e.Rebuild(w); err != nil {
		t.Fatal(err)
	}
	e.IngestTrip("dev", inFlight) // the tee's delivery, after the swap
	if st := e.Stats(); st.Trips != 2 || st.OutOfOrder != 0 || st.RebuildRecommended {
		t.Errorf("in-flight delivery after rebuild: %+v, want 2 trips and nothing out of order", st)
	}
	e.IngestTrip("dev", inFlight)
	if st := e.Stats(); st.Trips != 2 || st.OutOfOrder != 0 {
		t.Errorf("second delivery of the same trip: %+v, want it neither folded nor counted", st)
	}
}

// TestRebuildKeepsDepartures: the warehouse replay knows nothing of
// DeviceLeft signals, so a rebuild carries them over from the live views —
// for a device that has folded nothing since, not for one that came back.
func TestRebuildKeepsDepartures(t *testing.T) {
	w, err := tripstore.New(tripstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := New(Config{Shards: 2})
	store := func(dev position.DeviceID, seq int, tr semantics.Triplet) {
		t.Helper()
		if err := w.Insert(tripstore.Trip{Device: dev, Seq: seq, Triplet: tr}); err != nil {
			t.Fatal(err)
		}
		e.IngestTrip(dev, tr)
	}
	for _, dev := range []position.DeviceID{"gone", "back", "stays"} {
		store(dev, 0, trip("nike", t0, time.Minute))
	}
	e.DeviceLeft("gone", t0.Add(time.Minute))
	e.DeviceLeft("back", t0.Add(time.Minute))
	store("back", 1, trip("hall", t0.Add(time.Hour), time.Minute))

	if err := e.Rebuild(w); err != nil {
		t.Fatal(err)
	}
	byID := map[dsm.RegionID]int{}
	for _, o := range e.Occupancy(0) {
		byID[o.RegionID] = o.Occupancy
	}
	if byID["nike"] != 1 || byID["hall"] != 1 {
		t.Errorf("occupancy after rebuild = %v, want nike 1 (stays), hall 1 (back)", byID)
	}
	if st := e.Stats(); st.DeviceLeaves != 2 || st.OutOfOrder != 0 {
		t.Errorf("stats after rebuild = %+v, want the 2 departure signals still counted", st)
	}
}
