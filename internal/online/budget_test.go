//go:build !race

// The heap budget below is meaningless under the race detector's
// instrumentation, so this file is left out of -race builds.

package online

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"trips/internal/position"
)

// openSessionBudget is the engine's live heap per record held in an open
// session's tail: the tail itself plus every cache the next flush reads
// (the cleaned copy, the column projection, density flags, prefix sums,
// region labels and the snippet lists). The README's runbook sizes the
// engine heap as trips_online_tail_records × this figure.
const openSessionBudget = 200 // bytes per record

// TestOpenSessionHeapBudget holds the open-session footprint to its budget:
// a thousand shoppers each walk one journey, interleaved in time order, and
// none of them has gone idle when the heap is read, so every session is
// still open with its whole tail and caches. Flush scratch — the suffix
// re-clean, build lists, classifier buffers — belongs to the shard, so it
// must not show up per session.
func TestOpenSessionHeapBudget(t *testing.T) {
	const devices = 1000
	pl := testPipeline(t)
	g := lcg(3)
	var recs []position.Record
	for i := 0; i < devices; i++ {
		dev := position.DeviceID(fmt.Sprintf("shopper-%04d", i))
		recs = append(recs, journey(&g, dev, t0.Add(time.Duration(i)*time.Second))...)
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].At.Before(recs[j].At) })

	eng, err := NewEngine(pl, Config{
		Shards:        2,
		FlushInterval: -1,
		IdleTimeout:   -1,
		Emitter:       EmitterFunc(func(Emission) {}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	before := liveHeap()
	for _, r := range recs {
		if err := eng.Ingest(r); err != nil {
			t.Fatal(err)
		}
	}
	eng.Flush()
	after := liveHeap()

	// No journey has a hard break, so every admitted record is still in an
	// open tail.
	st := eng.Stats()
	if st.OpenSessions != devices || st.TailRecords != st.RecordsIn {
		t.Fatalf("stats = %+v, want %d open sessions holding all %d admitted records", st, devices, st.RecordsIn)
	}
	perRecord := float64(int64(after)-int64(before)) / float64(st.RecordsIn)
	t.Logf("%d records in open tails: %.0f B/record of live heap", st.TailRecords, perRecord)
	if perRecord > openSessionBudget {
		t.Errorf("open sessions hold %.0f B of live heap per admitted record, budget %d", perRecord, openSessionBudget)
	}

	eng.Close()
	if st := eng.Stats(); st.OpenSessions != 0 || st.TailRecords != 0 {
		t.Errorf("after Close: %d open sessions holding %d records, want none", st.OpenSessions, st.TailRecords)
	}
}
