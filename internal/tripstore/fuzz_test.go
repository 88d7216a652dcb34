package tripstore

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"trips/internal/position"
	"trips/internal/storage"
)

// FuzzReplaySegment: a store whose only document is one arbitrary segment
// under warehouse-segments/ either fails to open with an error or replays
// into a warehouse whose full query returns every trip it counts. The count
// is the number of distinct (device, From instant) pairs the document
// holds, decoded here on its own, and every other trip in it is a
// duplicate.
func FuzzReplaySegment(f *testing.F) {
	valid, err := json.Marshal(segmentDoc{Seq: 1, Trips: []Trip{
		trip("a", 0, "nike", 0, time.Minute),
		trip("a", 1, "hall", 2*time.Minute, time.Minute),
		trip("b", 0, "nike", time.Minute, -time.Minute), // ends before it starts
	}})
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		string(valid),
		`{}`,
		`{"seq":1,"trips":null}`,
		`{"seq":1,"trips":[{},{}]}`,
		`{"seq":1,"trips":[{"device":"a","triplet":{"from":"9999-12-31T23:59:59Z","to":"0000-01-01T00:00:00Z"}}]}`,
		`{"seq":"one"}`,
		`[`,
		``,
		// One instant in two zones, then out of order: one duplicate.
		`{"seq":1,"trips":[{"device":"a","seq":0,"triplet":{"from":"2017-01-01T10:00:00Z"}},{"device":"a","seq":1,"triplet":{"from":"2017-01-01T11:00:00+01:00"}},{"device":"a","seq":2,"triplet":{"from":"2017-01-01T09:00:00Z"}}]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		dir := t.TempDir()
		if err := os.MkdirAll(filepath.Join(dir, segmentCollection), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, segmentCollection, segKey(1)+".json"), doc, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := storage.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		w, err := New(Options{Log: &LogOptions{Store: st}})
		if err != nil {
			return
		}
		defer w.Close()
		page, err := w.Query(QuerySpec{})
		if err != nil {
			t.Fatal(err)
		}
		stats := w.Stats()
		if got, want := len(page.Trips), stats.Trips; got != want {
			t.Fatalf("replayed warehouse counts %d trips but a full query returns %d", want, got)
		}
		var seg segmentDoc
		if err := json.Unmarshal(doc, &seg); err != nil {
			t.Fatalf("the store replayed a document that does not decode: %v", err)
		}
		type identity struct {
			dev  position.DeviceID
			sec  int64
			nsec int
		}
		distinct := make(map[identity]bool)
		for _, tr := range seg.Trips {
			distinct[identity{tr.Device, tr.Triplet.From.Unix(), tr.Triplet.From.Nanosecond()}] = true
		}
		if stats.Trips != len(distinct) || stats.Duplicates != len(seg.Trips)-len(distinct) {
			t.Fatalf("replay kept %d trips and dropped %d duplicates; the document holds %d trips, %d distinct (device, From) pairs",
				stats.Trips, stats.Duplicates, len(seg.Trips), len(distinct))
		}
	})
}

// FuzzQueryCursor: a query resuming from an arbitrary cursor either errors
// or returns a page, and following Page.Next from there yields exactly the
// trips after the cursor in the global (From, Device, Seq) order, each page
// within its limit.
func FuzzQueryCursor(f *testing.F) {
	w := memWarehouse(f)
	for i := 0; i < 15; i++ {
		// Three devices, with starts shared across devices so the cursor's
		// device and seq components break ties.
		tr := trip(string(rune('a'+i%3)), i/3, []string{"nike", "hall"}[i%2], time.Duration(i/2)*time.Minute, time.Minute)
		if err := w.Insert(tr); err != nil {
			f.Fatal(err)
		}
	}
	all, err := w.Query(QuerySpec{})
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		"",
		encodeCursor(all.Trips[0]),
		encodeCursor(all.Trips[7]),
		encodeCursor(all.Trips[len(all.Trips)-1]),
		encodeCursor(Trip{Device: "a|b", Seq: -1, Triplet: all.Trips[3].Triplet}),
		"djF8MXwyfDN8YQ", // "v1|1|2|3|a"
		"not base64!",
	} {
		f.Add(seed, uint8(4))
	}
	f.Fuzz(func(t *testing.T, cursor string, limit uint8) {
		spec := QuerySpec{Cursor: cursor, Limit: int(limit%8) + 1}
		page, err := w.Query(spec)
		if err != nil {
			return
		}
		var want []Trip
		after, _ := decodeCursor(cursor) // Query accepted it
		for _, tr := range all.Trips {
			if cursor == "" || after.less(tr.key()) {
				want = append(want, tr)
			}
		}
		var got []Trip
		for pages := 0; ; pages++ {
			if len(page.Trips) > spec.Limit {
				t.Fatalf("page of %d trips over limit %d", len(page.Trips), spec.Limit)
			}
			got = append(got, page.Trips...)
			if page.Next == "" {
				break
			}
			if pages > len(all.Trips) {
				t.Fatal("Page.Next never runs out")
			}
			spec.Cursor = page.Next
			if page, err = w.Query(spec); err != nil {
				t.Fatalf("Page.Next %q does not resume: %v", spec.Cursor, err)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("pages from cursor %q:\ngot  %v\nwant %v", cursor, keysOf(Page{Trips: got}), keysOf(Page{Trips: want}))
		}
	})
}
