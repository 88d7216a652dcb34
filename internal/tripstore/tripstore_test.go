package tripstore

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"trips/internal/core"
	"trips/internal/dsm"
	"trips/internal/online"
	"trips/internal/position"
	"trips/internal/semantics"
	"trips/internal/storage"
)

var t0 = time.Date(2017, 1, 1, 10, 0, 0, 0, time.UTC)

// emitterFunc adapts a no-arg callback to online.Emitter for tee tests.
type emitterFunc func()

func (f emitterFunc) Emit(online.Emission) { f() }

// emission builds a minimal online emission.
func emission(dev string, seq int, from time.Duration) online.Emission {
	return online.Emission{
		Device: position.DeviceID(dev),
		Seq:    seq,
		Triplet: semantics.Triplet{
			Event:  semantics.EventStay,
			Region: "nike",
			From:   t0.Add(from),
			To:     t0.Add(from + 30*time.Second),
		},
	}
}

// trip builds a test trip: device dev, per-device seq, region tag/id r,
// period [t0+from, t0+from+dur).
func trip(dev string, seq int, r string, from, dur time.Duration) Trip {
	return Trip{
		Device: position.DeviceID(dev),
		Seq:    seq,
		Triplet: semantics.Triplet{
			Event:    semantics.EventStay,
			Region:   r,
			RegionID: dsm.RegionID("id-" + r),
			From:     t0.Add(from),
			To:       t0.Add(from + dur),
		},
	}
}

func mustInsert(t *testing.T, w *Warehouse, trips ...Trip) {
	t.Helper()
	for _, tr := range trips {
		if err := w.Insert(tr); err != nil {
			t.Fatal(err)
		}
	}
}

func mustFlush(t *testing.T, w *Warehouse) {
	t.Helper()
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
}

func memWarehouse(t testing.TB) *Warehouse {
	t.Helper()
	w, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// diskWarehouse opens (or reopens) a durable warehouse over dir.
func diskWarehouse(t *testing.T, dir string) *Warehouse {
	t.Helper()
	st, err := storage.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	w, err := New(Options{Log: &LogOptions{Store: st}})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// queryDevices extracts "dev/seq" keys from a page for compact assertions.
func keysOf(p Page) []string {
	if len(p.Trips) == 0 {
		return nil
	}
	out := make([]string, 0, len(p.Trips))
	for _, tr := range p.Trips {
		out = append(out, string(tr.Device)+"/"+string(rune('0'+tr.Seq)))
	}
	return out
}

func TestInsertDedupeAndStats(t *testing.T) {
	w := memWarehouse(t)
	a := trip("a", 0, "nike", 0, 5*time.Minute)
	mustInsert(t, w, a, trip("a", 1, "hall", 6*time.Minute, time.Minute), a) // dup
	mustInsert(t, w, trip("b", 0, "nike", 2*time.Minute, 10*time.Minute))

	st := w.Stats()
	if st.Trips != 3 || st.Devices != 2 || st.Duplicates != 1 {
		t.Errorf("stats = %+v, want 3 trips, 2 devices, 1 dup", st)
	}
	if st.Regions != 2 {
		t.Errorf("regions = %d, want 2", st.Regions)
	}
	if st.MaxTripSpan != 10*time.Minute {
		t.Errorf("maxTripSpan = %s, want 10m", st.MaxTripSpan)
	}
	if got := w.Devices(); !reflect.DeepEqual(got, []position.DeviceID{"a", "b"}) {
		t.Errorf("devices = %v", got)
	}
	if got := w.Regions(); !reflect.DeepEqual(got, []string{"id-hall", "id-nike"}) {
		t.Errorf("regions = %v", got)
	}
}

func TestQueryPredicates(t *testing.T) {
	w := memWarehouse(t)
	mustInsert(t, w,
		trip("a", 0, "nike", 0, 5*time.Minute),
		trip("a", 1, "hall", 6*time.Minute, time.Minute),
		trip("b", 0, "nike", 2*time.Minute, 10*time.Minute),
		trip("b", 1, "adidas", 15*time.Minute, 5*time.Minute),
	)
	inferred := trip("b", 2, "hall", 21*time.Minute, time.Minute)
	inferred.Triplet.Inferred = true
	inferred.Triplet.Event = semantics.EventPassBy
	mustInsert(t, w, inferred)

	cases := []struct {
		name string
		spec QuerySpec
		want []string
	}{
		{"all", QuerySpec{}, []string{"a/0", "b/0", "a/1", "b/1", "b/2"}},
		{"device", QuerySpec{Device: "a"}, []string{"a/0", "a/1"}},
		{"region-tag", QuerySpec{Region: "nike"}, []string{"a/0", "b/0"}},
		{"region-id", QuerySpec{RegionID: "id-nike"}, []string{"a/0", "b/0"}},
		{"event", QuerySpec{Event: semantics.EventPassBy}, []string{"b/2"}},
		{"inferred", QuerySpec{Inferred: boolPtr(true)}, []string{"b/2"}},
		{"observed-device", QuerySpec{Device: "b", Inferred: boolPtr(false)}, []string{"b/0", "b/1"}},
		// Overlap semantics: [4m, 7m) catches a/0 (ends 5m), b/0 (spans),
		// a/1 (starts 6m) but not b/1 (starts 15m).
		{"time-overlap", QuerySpec{Since: t0.Add(4 * time.Minute), Until: t0.Add(7 * time.Minute)},
			[]string{"a/0", "b/0", "a/1"}},
		{"time-exact-end-excluded", QuerySpec{Since: t0.Add(5 * time.Minute), Until: t0.Add(6 * time.Minute)},
			[]string{"b/0"}},
		{"since-only", QuerySpec{Since: t0.Add(16 * time.Minute)}, []string{"b/1", "b/2"}},
		{"until-only", QuerySpec{Until: t0.Add(2 * time.Minute)}, []string{"a/0"}},
		{"region-and-time", QuerySpec{Region: "nike", Since: t0.Add(6 * time.Minute)}, []string{"b/0"}},
		{"empty-range", QuerySpec{Since: t0.Add(time.Hour), Until: t0.Add(time.Hour)}, nil},
		{"unknown-device", QuerySpec{Device: "ghost"}, nil},
		{"unknown-region", QuerySpec{Region: "ghost"}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			page, err := w.Query(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			if got := keysOf(page); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("got %v, want %v", got, tc.want)
			}
		})
	}
}

func boolPtr(b bool) *bool { return &b }

// TestDedupeByStartInstantNotSeq pins the identity rule: producer
// sequence numbers restart per epoch (the online engine after a restart,
// batch results starting at 0), so two trips sharing a seq but starting
// at different instants are both real, while re-translations of the same
// timeline dedupe on the start instant whatever their seq says.
func TestDedupeByStartInstantNotSeq(t *testing.T) {
	w := memWarehouse(t)
	mustInsert(t, w, trip("a", 0, "nike", 0, time.Minute)) // batch epoch
	// Online epoch for the same device: seq restarts at 0 but the trip is
	// genuinely new — it must be stored, not dropped as a duplicate.
	mustInsert(t, w, trip("a", 0, "hall", 10*time.Minute, time.Minute))
	if st := w.Stats(); st.Trips != 2 || st.Duplicates != 0 {
		t.Errorf("seq collision across epochs dropped a trip: %+v", st)
	}
	// Re-translation of the same timeline: same start instant, different
	// seq — a duplicate.
	mustInsert(t, w, trip("a", 7, "nike", 0, time.Minute))
	if st := w.Stats(); st.Trips != 2 || st.Duplicates != 1 {
		t.Errorf("same-instant re-translation not deduped: %+v", st)
	}
}

func TestQueryUsesIndexNotFullScan(t *testing.T) {
	w := memWarehouse(t)
	// 100 devices × 10 trips, one device in region "rare" once.
	for d := 0; d < 100; d++ {
		dev := position.DeviceID(fmt.Sprintf("d%02d", d))
		for s := 0; s < 10; s++ {
			tr := trip(string(dev), s, "common", time.Duration(s)*time.Minute, 30*time.Second)
			if d == 42 && s == 5 {
				tr.Triplet.Region = "rare"
				tr.Triplet.RegionID = "id-rare"
			}
			mustInsert(t, w, tr)
		}
	}
	page, err := w.Query(QuerySpec{Region: "rare"})
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Trips) != 1 {
		t.Fatalf("got %d trips, want 1", len(page.Trips))
	}
	if page.Scanned != 1 {
		t.Errorf("region query scanned %d entries, want 1 (posting list, not full scan)", page.Scanned)
	}

	// Device query scans only that partition.
	page, err = w.Query(QuerySpec{Device: "d42"})
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Trips) != 10 || page.Scanned != 10 {
		t.Errorf("device query: %d trips, scanned %d; want 10/10", len(page.Trips), page.Scanned)
	}

	// Time query scans only the candidate From-window, not all 1000.
	page, err = w.Query(QuerySpec{Since: t0.Add(9 * time.Minute), Until: t0.Add(10 * time.Minute)})
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Trips) != 100 {
		t.Errorf("time query returned %d trips, want 100", len(page.Trips))
	}
	if page.Scanned >= 1000 {
		t.Errorf("time query scanned %d of 1000 entries — interval index not applied", page.Scanned)
	}
}

func TestQueryPagination(t *testing.T) {
	w := memWarehouse(t)
	// Interleave two devices so global order alternates.
	for s := 0; s < 5; s++ {
		mustInsert(t, w,
			trip("a", s, "nike", time.Duration(2*s)*time.Minute, time.Minute),
			trip("b", s, "nike", time.Duration(2*s+1)*time.Minute, time.Minute),
		)
	}
	var got []string
	spec := QuerySpec{Limit: 3}
	pages := 0
	for {
		page, err := w.Query(spec)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, keysOf(page)...)
		pages++
		if page.Next == "" {
			break
		}
		if len(page.Trips) != 3 {
			t.Fatalf("non-final page has %d trips, want 3", len(page.Trips))
		}
		spec.Cursor = page.Next
	}
	want := []string{"a/0", "b/0", "a/1", "b/1", "a/2", "b/2", "a/3", "b/3", "a/4", "b/4"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("paginated walk = %v, want %v", got, want)
	}
	if pages != 4 {
		t.Errorf("took %d pages, want 4 (3+3+3+1)", pages)
	}

	// Bad cursors error instead of restarting silently.
	if _, err := w.Query(QuerySpec{Cursor: "???"}); err == nil {
		t.Error("garbage cursor accepted")
	}
	if _, err := w.Query(QuerySpec{Cursor: "djJ8MXwxfGE"}); err == nil { // "v2|1|1|a"
		t.Error("wrong-version cursor accepted")
	}
}

// TestQueryOutOfOrderIngest exercises the amortized sort: trips inserted in
// reverse still query in global order.
func TestQueryOutOfOrderIngest(t *testing.T) {
	w := memWarehouse(t)
	for s := 4; s >= 0; s-- {
		mustInsert(t, w, trip("a", s, "nike", time.Duration(s)*time.Minute, time.Minute))
	}
	page, err := w.Query(QuerySpec{})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a/0", "a/1", "a/2", "a/3", "a/4"}
	if got := keysOf(page); !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
	// Mixed: more out-of-order inserts after the sort, then re-query.
	mustInsert(t, w, trip("b", 1, "nike", 30*time.Second, time.Minute))
	mustInsert(t, w, trip("b", 0, "nike", 10*time.Second, time.Minute))
	page, err = w.Query(QuerySpec{Region: "nike", Limit: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := keysOf(page); !reflect.DeepEqual(got, []string{"a/0", "b/0", "b/1"}) {
		t.Errorf("after reindex got %v", got)
	}
}

func TestIngestSequence(t *testing.T) {
	w := memWarehouse(t)
	seq := semantics.NewSequence("dev")
	seq.Append(semantics.Triplet{Event: semantics.EventStay, Region: "nike", From: t0, To: t0.Add(time.Minute)})
	seq.Append(semantics.Triplet{Event: semantics.EventPassBy, Region: "hall", From: t0.Add(2 * time.Minute), To: t0.Add(3 * time.Minute)})
	if err := w.IngestSequence("dev", seq); err != nil {
		t.Fatal(err)
	}
	page, err := w.Query(QuerySpec{Device: "dev"})
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Trips) != 2 || page.Trips[0].Seq != 0 || page.Trips[1].Seq != 1 {
		t.Errorf("ingested sequence mismatch: %+v", page.Trips)
	}
	// Re-ingestion is idempotent.
	if err := w.IngestSequence("dev", seq); err != nil {
		t.Fatal(err)
	}
	if st := w.Stats(); st.Trips != 2 || st.Duplicates != 2 {
		t.Errorf("after re-ingest stats = %+v", st)
	}
}

func TestDurabilityReopen(t *testing.T) {
	dir := t.TempDir()
	open := func() *Warehouse { return diskWarehouse(t, dir) }

	w := open()
	var all []Trip
	for s := 0; s < 10; s++ { // 10 trips, a flush every 4 → 2 sealed segments + 2 pending
		tr := trip("a", s, "nike", time.Duration(s)*time.Minute, time.Minute)
		all = append(all, tr)
		mustInsert(t, w, tr)
		if s%4 == 3 {
			mustFlush(t, w)
		}
	}
	if st := w.Stats(); st.Segments != 2 || st.PendingLog != 2 {
		t.Fatalf("stats = %+v, want 2 segments + 2 pending", st)
	}
	if err := w.Close(); err != nil { // Close flushes the pending tail
		t.Fatal(err)
	}
	if err := w.Insert(all[0]); err != ErrClosed {
		t.Errorf("insert after close = %v, want ErrClosed", err)
	}
	if _, err := w.Query(QuerySpec{}); err != ErrClosed {
		t.Errorf("query after close = %v, want ErrClosed", err)
	}

	spec := QuerySpec{Region: "nike", Since: t0.Add(3 * time.Minute), Until: t0.Add(8 * time.Minute)}
	w2 := open()
	page, err := w2.Query(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Trips 3..7 overlap [3m, 8m): trip 2 ends exactly at 3m and the
	// range is half-open, so it is out.
	if len(page.Trips) != 5 {
		t.Fatalf("reopened query got %d trips, want 5: %v", len(page.Trips), keysOf(page))
	}
	if st := w2.Stats(); st.Trips != 10 || st.Duplicates != 0 {
		t.Errorf("reopened stats = %+v, want 10 trips, 0 dupes", st)
	}

	// Snapshot is a Flush: one more segment, and no rewrite of the store.
	mustInsert(t, w2, trip("b", 0, "adidas", 20*time.Minute, time.Minute))
	if err := w2.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if st := w2.Stats(); st.Segments != 4 || st.PendingLog != 0 {
		t.Errorf("stats after snapshot = %+v, want 4 segments, nothing pending", st)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotCollection)); !os.IsNotExist(err) {
		t.Errorf("a %s collection exists (%v); the log writes segments only", snapshotCollection, err)
	}

	// Third generation: both generations' segments replay together.
	w3 := open()
	defer w3.Close()
	if st := w3.Stats(); st.Trips != 11 {
		t.Fatalf("third-generation trips = %d, want 11", st.Trips)
	}
	page3, err := w3.Query(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(page3.Trips, page.Trips) {
		t.Errorf("reopened warehouse answers differently:\nfirst:  %v\nsecond: %v",
			keysOf(page), keysOf(page3))
	}
}

// TestReplaysIndentedStore: documents are written compact, and a store whose
// segment documents are json.MarshalIndent output — what every store
// written before Put went compact holds — replays to the same warehouse as
// its compact-written twin.
func TestReplaysIndentedStore(t *testing.T) {
	compactDir, indentedDir := t.TempDir(), t.TempDir()
	nth := func(i int) Trip {
		return trip(fmt.Sprintf("dev-%d", i%3), i/3, []string{"nike", "adidas"}[i%2],
			time.Duration(i)*time.Minute, 90*time.Second)
	}

	// Four flushed segments and a short tail Close writes.
	w := diskWarehouse(t, compactDir)
	var first []Trip
	for i := 0; i < 4; i++ {
		first = append(first, nth(i))
	}
	mustInsert(t, w, first...)
	mustFlush(t, w)
	want, err := json.Marshal(segmentDoc{Seq: 1, Trips: first})
	if err != nil {
		t.Fatal(err)
	}
	seg1 := filepath.Join(compactDir, "warehouse-segments", segKey(1)+".json")
	if fi, err := os.Stat(seg1); err != nil {
		t.Fatal(err)
	} else if fi.Size() != int64(len(want)) {
		t.Fatalf("segment 1 is %d bytes on disk, want the %d of json.Marshal", fi.Size(), len(want))
	}
	for i := 4; i < 9; i++ {
		mustInsert(t, w, nth(i))
	}
	mustFlush(t, w)
	for i := 9; i < 19; i++ {
		mustInsert(t, w, nth(i))
		if i == 12 || i == 16 {
			mustFlush(t, w)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// The twin: every document re-encoded the way the indented Put wrote it.
	src, err := storage.Open(compactDir)
	if err != nil {
		t.Fatal(err)
	}
	reindent := func(col, key string, doc any) {
		t.Helper()
		if err := src.Get(col, key, doc); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Join(indentedDir, col), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(indentedDir, col, key+".json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := src.List("warehouse-segments")
	if err != nil || len(segs) != 5 {
		t.Fatalf("segments on disk = %v, %v; want the 5 written", segs, err)
	}
	for _, key := range segs {
		reindent("warehouse-segments", key, &segmentDoc{})
	}

	a, b := diskWarehouse(t, compactDir), diskWarehouse(t, indentedDir)
	defer a.Close()
	defer b.Close()
	if sa, sb := a.Stats(), b.Stats(); sa != sb || sa.Trips != 19 || sa.Segments != 5 {
		t.Fatalf("stats differ or are wrong:\ncompact:  %+v\nindented: %+v", sa, sb)
	}
	for _, spec := range []QuerySpec{
		{},
		{Device: "dev-1"},
		{Region: "adidas", Since: t0.Add(5 * time.Minute), Until: t0.Add(15 * time.Minute)},
		{Limit: 7},
	} {
		pa, err := a.Query(spec)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := b.Query(spec)
		if err != nil {
			t.Fatal(err)
		}
		if len(pa.Trips) == 0 || !reflect.DeepEqual(pa, pb) {
			t.Errorf("query %+v: compact and indented stores answer differently (or not at all):\n%v\n%v",
				spec, keysOf(pa), keysOf(pb))
		}
	}
}

// TestReplaysLegacySnapshotStore: a store an older version wrote — a
// whole-store snapshot document, a stale segment it covers that truncation
// never deleted, and two later segments — replays to the same warehouse as
// a segments-only twin holding the same trips, and keeps appending past the
// snapshot's covered segment numbers.
func TestReplaysLegacySnapshotStore(t *testing.T) {
	legacyDir, twinDir := t.TempDir(), t.TempDir()
	nth := func(i int) Trip {
		return trip(fmt.Sprintf("dev-%d", i%3), i/3, []string{"nike", "adidas"}[i%2],
			time.Duration(i)*time.Minute, 90*time.Second)
	}
	trips := func(lo, hi int) []Trip {
		var out []Trip
		for i := lo; i < hi; i++ {
			out = append(out, nth(i))
		}
		return out
	}

	st, err := storage.Open(legacyDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range []struct {
		col, key string
		v        any
	}{
		{snapshotCollection, snapshotKey, snapshotDoc{Covered: 2, Trips: trips(0, 6)}},
		{segmentCollection, segKey(2), segmentDoc{Seq: 2, Trips: trips(3, 6)}}, // stale
		{segmentCollection, segKey(3), segmentDoc{Seq: 3, Trips: trips(6, 9)}},
		{segmentCollection, segKey(4), segmentDoc{Seq: 4, Trips: trips(9, 12)}},
	} {
		if err := st.Put(doc.col, doc.key, doc.v); err != nil {
			t.Fatal(err)
		}
	}

	twin := diskWarehouse(t, twinDir)
	for _, batch := range [][]Trip{trips(0, 6), trips(6, 9), trips(9, 12)} {
		mustInsert(t, twin, batch...)
		mustFlush(t, twin)
	}
	if err := twin.Close(); err != nil {
		t.Fatal(err)
	}

	compare := func(label string, wantTrips int) {
		t.Helper()
		a, b := diskWarehouse(t, legacyDir), diskWarehouse(t, twinDir)
		defer a.Close()
		defer b.Close()
		if sa, sb := a.Stats(), b.Stats(); sa != sb || sa.Trips != wantTrips || sa.Duplicates != 0 {
			t.Fatalf("%s: stats differ or are wrong:\nlegacy: %+v\ntwin:   %+v", label, sa, sb)
		}
		for _, spec := range []QuerySpec{
			{},
			{Device: "dev-1"},
			{Region: "adidas", Since: t0.Add(5 * time.Minute), Until: t0.Add(15 * time.Minute)},
			{Limit: 5},
		} {
			pa, err := a.Query(spec)
			if err != nil {
				t.Fatal(err)
			}
			pb, err := b.Query(spec)
			if err != nil {
				t.Fatal(err)
			}
			if len(pa.Trips) == 0 || !reflect.DeepEqual(pa, pb) {
				t.Errorf("%s: query %+v: legacy and twin answer differently (or not at all):\n%v\n%v",
					label, spec, keysOf(pa), keysOf(pb))
			}
		}
	}
	compare("reopened", 12)

	// A trip written after the reopen lands past the covered segment
	// numbers, so the next replay reads it instead of skipping it.
	for _, dir := range []string{legacyDir, twinDir} {
		w := diskWarehouse(t, dir)
		mustInsert(t, w, nth(12))
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	compare("appended", 13)

	// Likewise when every segment the snapshot covers is gone and none
	// follows it.
	bareDir := t.TempDir()
	bare, err := storage.Open(bareDir)
	if err != nil {
		t.Fatal(err)
	}
	if err := bare.Put(snapshotCollection, snapshotKey, snapshotDoc{Covered: 2, Trips: trips(0, 6)}); err != nil {
		t.Fatal(err)
	}
	w := diskWarehouse(t, bareDir)
	mustInsert(t, w, nth(12))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w = diskWarehouse(t, bareDir)
	defer w.Close()
	if st := w.Stats(); st.Trips != 7 || st.Segments != 1 {
		t.Errorf("snapshot-only store after one append: %+v, want 7 trips in 1 segment", st)
	}
}

// TestDedupeOutOfOrderDevice files one device's trips in scrambled order,
// each start instant several times under different seqs, so the posting's
// dedupe answers from its last ref, its clean prefix, a short unsorted
// suffix and one long enough to be sorted first. Every answer must match a
// set of seen instants, and the first write of each instant must win.
func TestDedupeOutOfOrderDevice(t *testing.T) {
	w := memWarehouse(t)
	const n = 300
	seen := make(map[int]int) // minute → seq of the first write
	for i := 0; i < 4*n; i++ {
		m := (i * 7) % n // a stride through every minute, four laps
		if i%5 == 0 {
			m = n - 1 - m // and a reversed walk mixed in
		}
		tr := trip("a", i, "nike", time.Duration(m)*time.Minute, 30*time.Second)
		stored, err := w.file(tr)
		if err != nil {
			t.Fatal(err)
		}
		_, dup := seen[m]
		if stored == dup {
			t.Fatalf("insert %d (minute %d): stored = %v, but the minute was seen before = %v", i, m, stored, dup)
		}
		if !dup {
			seen[m] = i
		}
		if i == 2*n { // a query sorts everything mid-stream
			if _, err := w.Query(QuerySpec{Device: "a"}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if st := w.Stats(); st.Trips != len(seen) || st.Duplicates != 4*n-len(seen) {
		t.Errorf("stats = %+v, want %d trips and %d duplicates", st, len(seen), 4*n-len(seen))
	}
	page, err := w.Query(QuerySpec{Device: "a"})
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Trips) != len(seen) {
		t.Fatalf("device query returned %d trips, want %d", len(page.Trips), len(seen))
	}
	for i, tr := range page.Trips {
		m := int(tr.Triplet.From.Sub(t0) / time.Minute)
		if i > 0 && !page.Trips[i-1].Triplet.From.Before(tr.Triplet.From) {
			t.Fatalf("trip %d (minute %d) is not after its predecessor", i, m)
		}
		if first, ok := seen[m]; !ok || tr.Seq != first {
			t.Errorf("minute %d holds seq %d, want the first write's %d", m, tr.Seq, first)
		}
	}
}

// TestSinkForwardsOnlyNewTrips: the batch sink stores every result and
// hands its next sink only the triplets the warehouse had not held, so a
// re-translation forwards nothing and a backfill forwards just itself.
func TestSinkForwardsOnlyNewTrips(t *testing.T) {
	w := memWarehouse(t)
	var forwarded [][]semantics.Triplet
	sink := w.Sink(resultSinkFunc(func(r core.Result) error {
		forwarded = append(forwarded, r.Final.Triplets)
		return nil
	}))
	seq := semantics.NewSequence("dev")
	for _, m := range []time.Duration{10, 20, 30} {
		seq.Append(semantics.Triplet{Event: semantics.EventStay, Region: "nike", From: t0.Add(m * time.Minute), To: t0.Add((m + 5) * time.Minute)})
	}
	result := core.Result{Device: "dev", Final: seq}
	for _, step := range []struct {
		label string
		final *semantics.Sequence
		want  int // triplets forwarded
	}{
		{"first translation", seq, 3},
		{"re-translation", seq, 0},
		{"backfill", &semantics.Sequence{Device: "dev", Triplets: []semantics.Triplet{
			{Event: semantics.EventStay, Region: "hall", From: t0, To: t0.Add(time.Minute)},
			seq.Triplets[0],
		}}, 1},
		{"no final sequence", nil, 0},
	} {
		forwarded = nil
		result.Final = step.final
		if err := sink.IngestResult(result); err != nil {
			t.Fatal(err)
		}
		got := 0
		for _, f := range forwarded {
			got += len(f)
		}
		if got != step.want {
			t.Errorf("%s: forwarded %d triplets (%v), want %d", step.label, got, forwarded, step.want)
		}
	}
	if st := w.Stats(); st.Trips != 4 || st.Duplicates != 4 {
		t.Errorf("stats = %+v, want 4 trips, 4 duplicates", st)
	}
	if seq.Len() != 3 {
		t.Errorf("the caller's sequence was modified: %d triplets", seq.Len())
	}
}

// resultSinkFunc adapts a callback to core.ResultSink.
type resultSinkFunc func(core.Result) error

func (f resultSinkFunc) IngestResult(r core.Result) error { return f(r) }

func TestEmitterTee(t *testing.T) {
	w := memWarehouse(t)
	var forwarded int
	em := w.Emitter(emitterFunc(func() { forwarded++ }))
	for s := 0; s < 3; s++ {
		em.Emit(emission("dev", s, time.Duration(s)*time.Minute))
	}
	if forwarded != 3 {
		t.Errorf("forwarded %d emissions, want 3", forwarded)
	}
	if st := w.Stats(); st.Trips != 3 {
		t.Errorf("warehoused %d trips, want 3", st.Trips)
	}
	if c, ok := em.(interface{ Close() error }); !ok {
		t.Error("store emitter is not closable")
	} else if err := c.Close(); err != nil {
		t.Error(err)
	}
	// Nil downstream works too.
	em2 := w.Emitter(nil)
	em2.Emit(emission("dev2", 0, 0))
	if st := w.Stats(); st.Trips != 4 {
		t.Errorf("nil-downstream emit lost: %+v", w.Stats())
	}
}

// TestQueryStartAfter covers the frontier-bounded replay predicate: only
// trips whose From is strictly later than the frontier come back, the
// index span is cut by binary search (no prefix scan), and the predicate
// composes with device partitions and pagination.
func TestQueryStartAfter(t *testing.T) {
	w, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := 0; i < n; i++ {
		mustInsert(t, w, trip("a", i, "nike", time.Duration(2*i)*time.Minute, time.Minute))
		mustInsert(t, w, trip("b", i, "hall", time.Duration(2*i+1)*time.Minute, time.Minute))
	}
	frontier := t0.Add(60 * time.Minute) // device a's trip 30 starts here

	// Device partition: strictly-after semantics resume past the frontier
	// trip itself.
	page, err := w.Query(QuerySpec{Device: "a", StartAfter: frontier})
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Trips) != n-31 {
		t.Fatalf("device tail = %d trips, want %d", len(page.Trips), n-31)
	}
	for _, tr := range page.Trips {
		if !tr.Triplet.From.After(frontier) {
			t.Errorf("trip at %v not after the frontier", tr.Triplet.From)
		}
	}
	// The span cut does the work: nothing before the frontier is scanned.
	if page.Scanned != len(page.Trips) {
		t.Errorf("scanned %d entries for %d hits — frontier not applied by binary search", page.Scanned, len(page.Trips))
	}

	// Global order, paginated: both devices interleaved, all strictly past
	// the frontier, resuming correctly across pages.
	var got []Trip
	spec := QuerySpec{StartAfter: frontier, Limit: 7}
	for {
		page, err := w.Query(spec)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, page.Trips...)
		if page.Next == "" {
			break
		}
		spec.Cursor = page.Next
	}
	if want := (n - 31) + (n - 30); len(got) != want {
		t.Fatalf("global tail = %d trips, want %d", len(got), want)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Triplet.From.Before(got[i-1].Triplet.From) {
			t.Fatal("tail not in global From order")
		}
	}

	// A frontier past everything returns the empty tail.
	page, err = w.Query(QuerySpec{StartAfter: t0.Add(24 * time.Hour)})
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Trips) != 0 || page.Scanned != 0 {
		t.Errorf("post-everything frontier returned %d trips, scanned %d", len(page.Trips), page.Scanned)
	}
}
