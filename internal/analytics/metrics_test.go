package analytics

import (
	"strings"
	"testing"
	"time"

	"trips/internal/obs"
	"trips/internal/online"
	"trips/internal/semantics"
	"trips/internal/tripstore"
)

// TestMetricsFoldAndFreshness proves the engine's instruments fill through
// the emitter tee: every fold observes FoldSeconds, and emissions carrying
// an arrival stamp close the ingest→visible freshness loop while unstamped
// ones (close/idle flushes) are skipped.
func TestMetricsFoldAndFreshness(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	e := New(Config{Shards: 2, Metrics: m})
	tee := e.Emitter(nil)

	base := time.Date(2017, 1, 9, 9, 0, 0, 0, time.UTC)
	trip := func(i int) semantics.Triplet {
		return semantics.Triplet{
			Event:    semantics.EventStay,
			Region:   "Nike",
			RegionID: "r1",
			From:     base.Add(time.Duration(i) * time.Minute),
			To:       base.Add(time.Duration(i)*time.Minute + 30*time.Second),
		}
	}
	tee.Emit(online.Emission{Device: "d1", Seq: 0, Triplet: trip(0),
		ArrivedAt: time.Now().Add(-250 * time.Millisecond)})
	tee.Emit(online.Emission{Device: "d1", Seq: 1, Triplet: trip(1)}) // no stamp

	if got := m.FoldSeconds.Count(); got != 2 {
		t.Errorf("FoldSeconds count = %d, want 2", got)
	}
	if got := m.Freshness.Count(); got != 1 {
		t.Errorf("Freshness count = %d, want 1 (unstamped emission must be skipped)", got)
	}
	if q := m.Freshness.Quantile(0.5); q < 250*time.Millisecond {
		t.Errorf("freshness p50 = %v, want >= the 250ms the stamp was backdated", q)
	}

	// The metrics survive a rebuild: the configuration stays, so folds keep
	// landing in the same histograms.
	wh, err := tripstore.New(tripstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := wh.Insert(tripstore.Trip{Device: "d1", Seq: 0, Triplet: trip(0)}); err != nil {
		t.Fatal(err)
	}
	if err := e.Rebuild(wh); err != nil {
		t.Fatal(err)
	}
	e.IngestTrip("d2", trip(2))
	if got := m.FoldSeconds.Count(); got < 4 {
		t.Errorf("FoldSeconds count after rebuild = %d, want >= 4", got)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	samples, err := obs.ParseExposition(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	if samples["trips_freshness_seconds_count"] != 1 {
		t.Errorf("trips_freshness_seconds_count = %v, want 1", samples["trips_freshness_seconds_count"])
	}
}
