package analytics

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"trips/internal/storage"
)

// FuzzLoadSnapshot: an arbitrary document in the snapshot's place either
// fails to load with an error or seeds an engine that folds the next trip,
// renders every view and saves again — never a panic, never a hang.
func FuzzLoadSnapshot(f *testing.F) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "snapshot_v1.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fixture)
	f.Add(bytes.Replace(fixture, []byte(`"minRetained": 49445385`), []byte(`"minRetained": -9223372036854775808`), 1))
	f.Add([]byte(`{"version":1,"bucketWidth":30000000000,"buckets":100,"dwellBounds":11}`))
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, doc []byte) {
		dir := t.TempDir()
		if err := os.MkdirAll(filepath.Join(dir, snapshotCollection), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, snapshotCollection, snapshotDocKey+".json"), doc, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := storage.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		e := New(snapCfg)
		if _, err := e.LoadSnapshot(StoreOptions{Store: st}); err != nil {
			return
		}
		e.IngestTrip("fuzz-newcomer", trip("r1", e.Watermark().Add(time.Hour), time.Minute))
		e.Snapshot()
		e.Occupancy(time.Minute)
		e.TopK(3, 0)
		e.Stats()
		if err := e.SaveSnapshot(StoreOptions{Store: st}); err != nil {
			t.Fatal(err)
		}
	})
}
