package trips

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sort"
	"testing"
)

// TestGoldenAnalyticsBootstrapMatchesLive is the acceptance property of the
// analytics subsystem: on the golden corpus, (1) live incremental ingestion
// through the online engine's emitter tee, (2) a cold-start bootstrap
// replaying the warehouse the same engine filled, and (3) the batch
// Translate sink all produce identical analytics views.
func TestGoldenAnalyticsBootstrapMatchesLive(t *testing.T) {
	cfg := AnalyticsConfig{Shards: 4}

	// (1) Live: the online engine tees sealed triplets into the views
	// while the warehouse stores them.
	sys, ds := goldenSystem(t)
	w, err := NewWarehouse()
	if err != nil {
		t.Fatal(err)
	}
	sys.AttachWarehouse(w)
	live := NewAnalytics(cfg)
	if err := sys.AttachAnalytics(live); err != nil {
		t.Fatal(err)
	}
	eng, err := sys.NewOnline(OnlineConfig{
		Shards: 4, FlushEvery: 64, FlushInterval: -1, IdleTimeout: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var all []Record
	for _, seq := range ds.Sequences() {
		all = append(all, seq.Records...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].At.Before(all[j].At) })
	for _, r := range all {
		if err := eng.Ingest(r); err != nil {
			t.Fatal(err)
		}
	}
	eng.Close()

	liveSnap := live.Snapshot()
	if liveSnap.Trips == 0 || len(liveSnap.Occupancy) == 0 || len(liveSnap.Dwell) == 0 {
		t.Fatalf("degenerate live views: %+v", liveSnap)
	}

	// (2) Bootstrap: a fresh engine cold-started over the warehouse the
	// online run filled must reach the same state.
	boot := NewAnalytics(cfg)
	if err := boot.Bootstrap(w); err != nil {
		t.Fatal(err)
	}
	if bootSnap := boot.Snapshot(); !reflect.DeepEqual(liveSnap, bootSnap) {
		t.Errorf("bootstrap views diverge from live ingestion:\nlive: %+v\nboot: %+v", liveSnap, bootSnap)
	}

	// (3) Batch: the golden corpus translates bit-identically through the
	// batch engine (TestGoldenBatch ⋂ TestGoldenOnline), so the batch
	// result sink must fold to the same views too.
	sys2, ds2 := goldenSystem(t)
	batch := NewAnalytics(cfg)
	if err := sys2.AttachAnalytics(batch); err != nil {
		t.Fatal(err)
	}
	if _, err := sys2.Translate(ds2); err != nil {
		t.Fatal(err)
	}
	if batchSnap := batch.Snapshot(); !reflect.DeepEqual(liveSnap, batchSnap) {
		t.Errorf("batch-sink views diverge from live ingestion:\nlive:  %+v\nbatch: %+v", liveSnap, batchSnap)
	}
}

// TestAttachAnalyticsBootstrapsFromWarehouse covers the cold-start path the
// server uses: attach to a system whose warehouse already holds trips and
// the views arrive pre-populated.
func TestAttachAnalyticsBootstrapsFromWarehouse(t *testing.T) {
	sys, ds := goldenSystem(t)
	w, err := NewWarehouse()
	if err != nil {
		t.Fatal(err)
	}
	sys.AttachWarehouse(w)
	if _, err := sys.Translate(ds); err != nil {
		t.Fatal(err)
	}

	a := NewAnalytics(AnalyticsConfig{})
	if err := sys.AttachAnalytics(a); err != nil {
		t.Fatal(err)
	}
	if sys.Analytics() != a {
		t.Fatal("Analytics() does not return the attached engine")
	}
	if st := a.Stats(); st.Trips == 0 || st.Trips != int64(w.Stats().Trips) {
		t.Errorf("bootstrap folded %d trips, warehouse holds %d", st.Trips, w.Stats().Trips)
	}
	if err := sys.AttachAnalytics(nil); err != nil {
		t.Fatal(err)
	}
	if sys.Analytics() != nil {
		t.Error("detach failed")
	}
}

// TestGoldenAnalyticsSnapshotBootMatchesBootstrap is the acceptance
// property of the durability layer: on the golden corpus, booting from a
// mid-ingestion durable snapshot plus a frontier-bounded warehouse tail
// replay is byte-identical (marshaled view state) to both a fresh
// warehouse Bootstrap and the live-teed engine that wrote the snapshot.
func TestGoldenAnalyticsSnapshotBootMatchesBootstrap(t *testing.T) {
	cfg := AnalyticsConfig{Shards: 4}

	// Live: online ingestion tees into the views while the warehouse
	// stores the sealed trips; a durable snapshot is cut midway.
	sys, ds := goldenSystem(t)
	w, err := NewWarehouse()
	if err != nil {
		t.Fatal(err)
	}
	sys.AttachWarehouse(w)
	live := NewAnalytics(cfg)
	if err := sys.AttachAnalytics(live); err != nil {
		t.Fatal(err)
	}
	eng, err := sys.NewOnline(OnlineConfig{
		Shards: 4, FlushEvery: 64, FlushInterval: -1, IdleTimeout: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var all []Record
	for _, seq := range ds.Sequences() {
		all = append(all, seq.Records...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].At.Before(all[j].At) })

	st, err := OpenBackendStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := AnalyticsStoreOptions{Store: st, Sync: w.Flush}
	for i, r := range all {
		if err := eng.Ingest(r); err != nil {
			t.Fatal(err)
		}
		if i == len(all)/2 {
			eng.Flush() // seal what the watermark allows, then snapshot mid-stream
			if err := live.SaveSnapshot(opts); err != nil {
				t.Fatal(err)
			}
		}
	}
	eng.Close()

	total := int64(w.Stats().Trips)
	if total == 0 {
		t.Fatal("empty warehouse")
	}

	// Snapshot boot: load the mid-stream snapshot, replay only the tail.
	boot := NewAnalytics(cfg)
	ok, err := boot.LoadSnapshot(opts)
	if err != nil || !ok {
		t.Fatalf("LoadSnapshot = %v, %v", ok, err)
	}
	preloaded := boot.Stats().Trips
	if preloaded == 0 || preloaded == total {
		t.Fatalf("mid-stream snapshot covers %d of %d trips — no tail to replay", preloaded, total)
	}
	if err := boot.Bootstrap(w); err != nil {
		t.Fatal(err)
	}
	t.Logf("snapshot covered %d trips, tail replay folded %d", preloaded, total-preloaded)

	// Fresh full rebuild.
	fresh := NewAnalytics(cfg)
	if err := fresh.Bootstrap(w); err != nil {
		t.Fatal(err)
	}

	marshal := func(label string, a *AnalyticsEngine) []byte {
		t.Helper()
		b, err := json.Marshal(a.Snapshot())
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		return b
	}
	liveBytes := marshal("live", live)
	if !bytes.Equal(liveBytes, marshal("boot", boot)) {
		t.Error("snapshot+tail boot diverges from the live-teed views")
	}
	if !bytes.Equal(liveBytes, marshal("fresh", fresh)) {
		t.Error("fresh Bootstrap diverges from the live-teed views")
	}
	if stats := boot.Stats(); stats.Trips != total || stats.OutOfOrder != 0 {
		t.Errorf("boot stats = %+v, want %d trips, no drops", stats, total)
	}
}

// TestSystemRebuildReachesRunningEngine: after a backfill the views rebuild
// in place, so an online engine started before the rebuild keeps folding
// into the views the System serves — there is no second engine to re-attach.
func TestSystemRebuildReachesRunningEngine(t *testing.T) {
	sys, ds := goldenSystem(t)
	w, err := NewWarehouse()
	if err != nil {
		t.Fatal(err)
	}
	sys.AttachWarehouse(w)
	a := NewAnalytics(AnalyticsConfig{Shards: 4})
	if err := sys.AttachAnalytics(a); err != nil {
		t.Fatal(err)
	}
	eng, err := sys.NewOnline(OnlineConfig{Shards: 2, FlushEvery: 64, FlushInterval: -1, IdleTimeout: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	// Each device's day in thirds: the middle streams first, the early
	// third arrives as a batch backfill behind it, the last streams after
	// the rebuild.
	early := NewDataset()
	var mid, late []Record
	for _, seq := range ds.Sequences() {
		n := len(seq.Records)
		for _, r := range seq.Records[:n/3] {
			early.Add(r)
		}
		mid = append(mid, seq.Records[n/3:2*n/3]...)
		late = append(late, seq.Records[2*n/3:]...)
	}
	stream := func(recs []Record) {
		t.Helper()
		for _, r := range recs {
			if err := eng.Ingest(r); err != nil {
				t.Fatal(err)
			}
		}
		eng.Flush()
	}
	stream(mid)
	if _, err := sys.Translate(early); err != nil {
		t.Fatal(err)
	}
	if st := a.Stats(); !st.RebuildRecommended {
		t.Fatalf("backfill behind the live frontiers was not flagged: %+v", st)
	}

	if err := sys.Analytics().Rebuild(sys.Warehouse()); err != nil {
		t.Fatal(err)
	}
	rebuilt := a.Stats()
	if rebuilt.RebuildRecommended || rebuilt.Trips != int64(w.Stats().Trips) {
		t.Fatalf("rebuilt views: %+v, warehouse holds %d trips", rebuilt, w.Stats().Trips)
	}

	stream(late)
	eng.Close()
	st := a.Stats()
	if st.Trips <= rebuilt.Trips || st.Trips != int64(w.Stats().Trips) || st.OutOfOrder != 0 {
		t.Errorf("emissions after the rebuild: views %+v (rebuilt with %d trips), warehouse holds %d",
			st, rebuilt.Trips, w.Stats().Trips)
	}
	fresh := NewAnalytics(AnalyticsConfig{Shards: 4})
	if err := fresh.Bootstrap(w); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Snapshot(), fresh.Snapshot()) {
		t.Error("views fed across a rebuild differ from a fresh bootstrap of the warehouse")
	}
}
