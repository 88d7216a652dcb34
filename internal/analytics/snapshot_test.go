package analytics

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"trips/internal/position"
	"trips/internal/semantics"
	"trips/internal/storage"
	"trips/internal/tripstore"
)

var snapCfg = Config{Shards: 4, BucketWidth: 30 * time.Second, Buckets: 100}

func testStore(t *testing.T) *storage.Store {
	t.Helper()
	st, err := storage.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// arrivalOrder flattens a per-device corpus into one globally
// time-interleaved delivery sequence, the shape live ingestion has.
func arrivalOrder(corpus map[position.DeviceID][]semantics.Triplet) []arrival {
	var out []arrival
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
			return out
		}
		out = append(out, arrival{pick, corpus[pick][idx[pick]]})
		idx[pick]++
	}
}

type arrival struct {
	dev position.DeviceID
	tr  semantics.Triplet
}

func TestSnapshotSaveLoadRoundTrip(t *testing.T) {
	st := testStore(t)
	e := New(snapCfg)
	for _, a := range arrivalOrder(synthTrips(12, 40)) {
		e.IngestTrip(a.dev, a.tr)
	}
	e.DeviceLeft("dev-03", e.Watermark()) // leaves must survive the round trip
	if err := e.SaveSnapshot(StoreOptions{Store: st}); err != nil {
		t.Fatal(err)
	}

	loaded := New(snapCfg)
	ok, err := loaded.LoadSnapshot(StoreOptions{Store: st})
	if err != nil || !ok {
		t.Fatalf("LoadSnapshot = %v, %v", ok, err)
	}
	if want, got := e.Snapshot(), loaded.Snapshot(); !reflect.DeepEqual(want, got) {
		t.Errorf("round-tripped views diverge:\nsaved:  %+v\nloaded: %+v", want, got)
	}
	// The diagnostic counters ride along too (snapshot age differs).
	want, got := e.Stats(), loaded.Stats()
	want.LastSnapshot, got.LastSnapshot = time.Time{}, time.Time{}
	want.SnapshotAgeSeconds, got.SnapshotAgeSeconds = 0, 0
	if !reflect.DeepEqual(want, got) {
		t.Errorf("round-tripped stats diverge:\nsaved:  %+v\nloaded: %+v", want, got)
	}
	if loaded.Stats().LastSnapshot.IsZero() {
		t.Error("loaded engine does not report the snapshot time")
	}

	// Loading over folded state is refused.
	if _, err := loaded.LoadSnapshot(StoreOptions{Store: st}); !errors.Is(err, ErrEngineNotEmpty) {
		t.Errorf("second load = %v, want ErrEngineNotEmpty", err)
	}
	// A missing snapshot is not an error.
	if ok, err := New(snapCfg).LoadSnapshot(StoreOptions{Store: testStore(t)}); ok || err != nil {
		t.Errorf("missing snapshot = %v, %v", ok, err)
	}
	// A geometry change invalidates the snapshot.
	other := New(Config{Shards: 4, BucketWidth: time.Minute, Buckets: 100})
	if _, err := other.LoadSnapshot(StoreOptions{Store: st}); !errors.Is(err, ErrIncompatibleSnapshot) {
		t.Errorf("mismatched geometry load = %v, want ErrIncompatibleSnapshot", err)
	}
}

// TestSnapshotBootMatchesFullRebuild is the recovery property: a boot from
// snapshot + frontier-bounded tail replay reaches exactly the state a full
// warehouse Bootstrap builds — including when the crash happened between
// the snapshot and later (un-synced) tail writes, in which case both sides
// lose the same trips.
func TestSnapshotBootMatchesFullRebuild(t *testing.T) {
	for _, tc := range []struct {
		name      string
		flushTail bool
	}{
		// Tail segments made it to disk before the crash: the snapshot
		// boot must replay exactly that tail.
		{"tail-durable", true},
		// Crash between the snapshot and the tail flush: the warehouse
		// lost the tail, and because SaveSnapshot syncs the log *before*
		// persisting (StoreOptions.Sync), the snapshot cannot know more
		// than the surviving log either.
		{"tail-lost", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			whStore, anStore := testStore(t), testStore(t)
			// 200 trips before the snapshot and 100 after: neither side fills
			// a 256-trip segment, so only Sync and the explicit Flush write one.
			w, err := tripstore.New(tripstore.Options{Log: &tripstore.LogOptions{Store: whStore}})
			if err != nil {
				t.Fatal(err)
			}
			deliveries := arrivalOrder(synthTrips(10, 30))
			seq := make(map[position.DeviceID]int)
			insert := func(a arrival) {
				if err := w.Insert(tripstore.Trip{Device: a.dev, Seq: seq[a.dev], Triplet: a.tr}); err != nil {
					t.Fatal(err)
				}
				seq[a.dev]++
			}

			live := New(snapCfg)
			cut := 2 * len(deliveries) / 3
			for _, a := range deliveries[:cut] {
				insert(a)
				live.IngestTrip(a.dev, a.tr)
			}
			if err := live.SaveSnapshot(StoreOptions{Store: anStore, Sync: w.Flush}); err != nil {
				t.Fatal(err)
			}
			for _, a := range deliveries[cut:] {
				insert(a)
				live.IngestTrip(a.dev, a.tr)
			}
			if tc.flushTail {
				if err := w.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			// Crash: no Close, no final snapshot — w and live are abandoned
			// with the tail either flushed or lost.

			reopened, err := tripstore.New(tripstore.Options{Log: &tripstore.LogOptions{Store: whStore}})
			if err != nil {
				t.Fatal(err)
			}
			wantTrips := cut
			if tc.flushTail {
				wantTrips = len(deliveries)
			}
			if st := reopened.Stats(); st.Trips != wantTrips {
				t.Fatalf("reopened warehouse has %d trips, want %d", st.Trips, wantTrips)
			}

			boot := New(snapCfg)
			if ok, err := boot.LoadSnapshot(StoreOptions{Store: anStore}); err != nil || !ok {
				t.Fatalf("LoadSnapshot = %v, %v", ok, err)
			}
			preReplay := boot.Stats().Trips
			if err := boot.Bootstrap(reopened); err != nil {
				t.Fatal(err)
			}
			full := New(snapCfg)
			if err := full.Bootstrap(reopened); err != nil {
				t.Fatal(err)
			}
			if want, got := full.Snapshot(), boot.Snapshot(); !reflect.DeepEqual(want, got) {
				t.Errorf("snapshot boot diverges from full rebuild:\nfull: %+v\nboot: %+v", want, got)
			}
			if replayed := boot.Stats().Trips - preReplay; tc.flushTail {
				if want := int64(len(deliveries) - cut); replayed != want {
					t.Errorf("tail replay folded %d trips, want the %d-trip tail", replayed, want)
				}
			} else if replayed != 0 {
				t.Errorf("replayed %d trips from a warehouse that lost the tail", replayed)
			}
		})
	}
}

// TestSnapshotUnderConcurrentIngest saves while producers are folding —
// the consistent-cut path under -race — then proves a final snapshot
// round-trips the settled state.
func TestSnapshotUnderConcurrentIngest(t *testing.T) {
	st := testStore(t)
	e := New(Config{Shards: 4, BucketWidth: time.Second, Buckets: 3600})
	const producers, perProducer = 8, 150

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			dev := position.DeviceID(fmt.Sprintf("dev-%d", p))
			at := t0
			for i := 0; i < perProducer; i++ {
				e.IngestTrip(dev, trip(fmt.Sprintf("r%d", (p+i)%5), at, 10*time.Second))
				at = at.Add(15 * time.Second)
			}
		}(p)
	}
	for i := 0; i < 5; i++ {
		if err := e.SaveSnapshot(StoreOptions{Store: st}); err != nil {
			t.Error(err)
		}
	}
	wg.Wait()

	if err := e.SaveSnapshot(StoreOptions{Store: st}); err != nil {
		t.Fatal(err)
	}
	loaded := New(Config{Shards: 4, BucketWidth: time.Second, Buckets: 3600})
	if ok, err := loaded.LoadSnapshot(StoreOptions{Store: st}); err != nil || !ok {
		t.Fatalf("LoadSnapshot = %v, %v", ok, err)
	}
	if want, got := e.Snapshot(), loaded.Snapshot(); !reflect.DeepEqual(want, got) {
		t.Error("final snapshot does not round-trip the settled state")
	}
}

// TestAutoSnapshot drives the periodic writer: snapshots appear without
// explicit saves, and stop writes a final one covering late folds.
func TestAutoSnapshot(t *testing.T) {
	st := testStore(t)
	e := New(snapCfg)
	e.IngestTrip("dev", trip("r1", t0, time.Minute))
	stop := e.StartAutoSnapshot(StoreOptions{Store: st}, 5*time.Millisecond)

	deadline := time.Now().Add(5 * time.Second)
	for e.Stats().LastSnapshot.IsZero() {
		if time.Now().After(deadline) {
			t.Fatal("periodic snapshot never written")
		}
		time.Sleep(time.Millisecond)
	}
	e.IngestTrip("dev", trip("r2", t0.Add(2*time.Minute), time.Minute))
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil { // idempotent
		t.Fatal(err)
	}
	loaded := New(snapCfg)
	if ok, err := loaded.LoadSnapshot(StoreOptions{Store: st}); err != nil || !ok {
		t.Fatalf("LoadSnapshot = %v, %v", ok, err)
	}
	if st := loaded.Stats(); st.Trips != 2 {
		t.Errorf("final snapshot covers %d trips, want 2 (the post-tick fold included)", st.Trips)
	}
}

// TestRestoredRingFrontierBounds: the ring frontier arrives from disk. One
// near math.MinInt64 (only a corrupt or hand-edited file carries it) must
// not hang the next fold in prune, and one above the watermark's bucket —
// which would drop every later popularity fold as late — is an incompatible
// snapshot that leaves the engine untouched.
func TestRestoredRingFrontierBounds(t *testing.T) {
	src := New(snapCfg)
	for _, a := range arrivalOrder(synthTrips(4, 10)) {
		src.IngestTrip(a.dev, a.tr)
	}
	doc := src.capture()
	load := func(minRetained int64) (*Engine, error) {
		st := testStore(t)
		doc.Ring.MinRetained = minRetained
		if err := st.Put(snapshotCollection, snapshotDocKey, doc); err != nil {
			t.Fatal(err)
		}
		e := New(snapCfg)
		_, err := e.LoadSnapshot(StoreOptions{Store: st})
		return e, err
	}

	e, err := load(math.MinInt64)
	if err != nil {
		t.Fatal(err)
	}
	folded := make(chan struct{})
	go func() {
		e.IngestTrip("newcomer", trip("r1", doc.Watermark.Add(time.Hour), time.Minute))
		close(folded)
	}()
	select {
	case <-folded:
	case <-time.After(5 * time.Second):
		t.Fatal("the first fold after restoring minRetained = MinInt64 did not return")
	}
	// The hour's leap is wider than the 50-minute ring: only the new bucket
	// survives, and the new trip is not late.
	if snap := e.Snapshot(); len(snap.Ring) != 1 || snap.Ring[0].Regions[0].RegionID != "r1" {
		t.Errorf("ring after the leap = %+v, want only the newcomer's bucket", snap.Ring)
	}
	if got, want := e.Stats().LateBuckets, doc.Counters.LateBuckets; got != want {
		t.Errorf("LateBuckets = %d, want the restored %d", got, want)
	}

	ahead, err := load(src.bucketIndex(doc.Watermark) + 1)
	if !errors.Is(err, ErrIncompatibleSnapshot) {
		t.Fatalf("frontier above the watermark's bucket: load = %v, want ErrIncompatibleSnapshot", err)
	}
	if st := ahead.Stats(); st.Trips != 0 || st.Devices != 0 {
		t.Errorf("rejected load mutated the engine: %+v", st)
	}
}

// TestCorruptSectionLeavesEngineUntouched: a snapshot that passes the
// header check but fails section validation (a dwell row with the wrong
// bucket count) must not half-restore — in particular it must not install
// device frontiers, or the caller's full-Bootstrap fallback would silently
// skip everything behind them.
func TestCorruptSectionLeavesEngineUntouched(t *testing.T) {
	st := testStore(t)
	e := New(snapCfg)
	for _, a := range arrivalOrder(synthTrips(4, 10)) {
		e.IngestTrip(a.dev, a.tr)
	}
	if err := e.SaveSnapshot(StoreOptions{Store: st}); err != nil {
		t.Fatal(err)
	}
	// Corrupt one dwell row's bucket vector in place.
	var doc map[string]any
	if err := st.Get("analytics-snapshot", "latest", &doc); err != nil {
		t.Fatal(err)
	}
	rows := doc["dwell"].(map[string]any)["rows"].([]any)
	if len(rows) == 0 {
		t.Fatal("no dwell rows to corrupt")
	}
	row := rows[0].(map[string]any)
	row["buckets"] = row["buckets"].([]any)[:2]
	if err := st.Put("analytics-snapshot", "latest", doc); err != nil {
		t.Fatal(err)
	}

	fresh := New(snapCfg)
	if _, err := fresh.LoadSnapshot(StoreOptions{Store: st}); !errors.Is(err, ErrIncompatibleSnapshot) {
		t.Fatalf("corrupt section load = %v, want ErrIncompatibleSnapshot", err)
	}
	if stats := fresh.Stats(); stats.Trips != 0 || stats.Devices != 0 {
		t.Fatalf("rejected load mutated the engine: %+v", stats)
	}
	// The engine is still fresh: a full bootstrap fallback sees every trip
	// (zero frontiers), exactly what trips.OpenAnalytics relies on.
	w, err := tripstore.New(tripstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	seq := 0
	for _, a := range arrivalOrder(synthTrips(4, 10)) {
		if err := w.Insert(tripstore.Trip{Device: a.dev, Seq: seq, Triplet: a.tr}); err != nil {
			t.Fatal(err)
		}
		seq++
	}
	if err := fresh.Bootstrap(w); err != nil {
		t.Fatal(err)
	}
	if want, got := e.Snapshot(), fresh.Snapshot(); !reflect.DeepEqual(want, got) {
		t.Error("fallback bootstrap after rejected load diverges from the original views")
	}
}
