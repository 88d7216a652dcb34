package analytics

import (
	"testing"
	"time"

	"trips/internal/dsm"
	"trips/internal/semantics"
)

// TestFoldSteadyStateZeroAlloc guards the analytics fold's steady state:
// once a device and its regions are known to the views — device state
// struct allocated, histogram and ring bucket in place, every map key
// present — folding one more sealed triplet must not allocate. New devices,
// new regions, and ring-bucket rollover each pay a one-time allocation that
// amortizes to zero over a stream; the per-trip path is index updates on
// pre-sized maps behind the engine's one lock.
//
//trips:guards Engine.bucketIndex
//trips:guards histogram.observe
func TestFoldSteadyStateZeroAlloc(t *testing.T) {
	e := New(Config{BucketWidth: time.Hour, Buckets: 8})
	// Aligned to the bucket grid so the measured folds stay inside one ring
	// bucket instead of allocating a fresh bucket map mid-run.
	base := time.Date(2017, 1, 2, 10, 0, 0, 0, time.UTC)
	regions := []dsm.RegionID{"r-nike", "r-adidas"}
	tags := []string{"Nike", "Adidas"}

	n := 0
	fold := func() {
		from := base.Add(time.Duration(n) * time.Second)
		e.IngestTrip("dev-1", semantics.Triplet{
			Event:    semantics.EventStay,
			Region:   tags[n%2],
			RegionID: regions[n%2],
			From:     from,
			To:       from.Add(time.Second / 2),
		})
		n++
	}
	// Warm: allocate the device state, both histograms, both flow
	// directions, the ring bucket.
	for i := 0; i < 16; i++ {
		fold()
	}
	if st := e.Stats(); st.Trips != 16 || st.Flows != 2 {
		t.Fatalf("warm-up folds not all applied: %+v", st)
	}

	if avg := testing.AllocsPerRun(500, func() {
		fold()
	}); avg != 0 {
		t.Errorf("steady-state fold allocates %.2f times per triplet, want 0", avg)
	}
}
