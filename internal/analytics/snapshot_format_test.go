package analytics

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"
)

// TestSnapshotFormatPinned pins the durable snapshot document: the fixture
// was written by the sharded engine that preceded the one-state engine, from
// the same fixed fold sequence, so equal bytes here mean a restart across
// that upgrade loads the old snapshot and replays only the warehouse tail.
// Restoring the fixture and capturing again must reproduce it too — the old
// document seeds exactly the state that wrote it. A deliberate format change
// bumps snapshotVersion and regenerates the fixture.
func TestSnapshotFormatPinned(t *testing.T) {
	want, err := os.ReadFile("testdata/snapshot_v1.json")
	if err != nil {
		t.Fatal(err)
	}
	render := func(e *Engine) []byte {
		t.Helper()
		doc := e.capture()
		doc.SavedAt = time.Time{}
		got, err := json.MarshalIndent(doc, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		return append(got, '\n')
	}

	var deliveries []arrival
	for dev, ts := range synthTrips(6, 30) {
		for _, tr := range ts {
			deliveries = append(deliveries, arrival{dev, tr})
		}
	}
	sort.Slice(deliveries, func(i, j int) bool {
		a, b := deliveries[i], deliveries[j]
		if !a.tr.From.Equal(b.tr.From) {
			return a.tr.From.Before(b.tr.From)
		}
		return a.dev < b.dev
	})
	e := New(snapCfg)
	for _, a := range deliveries {
		e.IngestTrip(a.dev, a.tr)
	}
	// Every counter the document carries is non-zero: a departure, a
	// duplicate delivery, and a first trip far below the ring frontier.
	e.DeviceLeft("dev-03", e.Watermark())
	e.IngestTrip(deliveries[0].dev, deliveries[0].tr)
	e.IngestTrip("dev-late", trip("r0", t0.Add(-24*time.Hour), time.Minute))
	if c := e.capture().Counters; c.Leaves != 1 || c.OutOfOrder != 1 || c.LateBuckets != 1 || c.Inferred == 0 || c.Regionless == 0 {
		t.Fatalf("fixture sequence leaves a counter at zero: %+v", c)
	}

	if got := render(e); !bytes.Equal(got, want) {
		t.Errorf("snapshot document moved from testdata/snapshot_v1.json:\n%s", got)
	}

	var doc snapshotDoc
	if err := json.Unmarshal(want, &doc); err != nil {
		t.Fatal(err)
	}
	loaded := New(snapCfg)
	if err := loaded.restore(&doc); err != nil {
		t.Fatal(err)
	}
	if got := render(loaded); !bytes.Equal(got, want) {
		t.Errorf("fixture does not survive restore + capture:\n%s", got)
	}
}
