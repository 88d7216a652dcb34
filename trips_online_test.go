package trips

import (
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"trips/internal/simul"
)

// onlineTestSystem builds a trained system over a small mall plus a
// gap-free simulated population (no dropouts, so no record gap exceeds the
// sampling period and the online engine's bit-exact path is in force).
func onlineTestSystem(t *testing.T, devices int, window time.Duration) (*System, *Dataset) {
	t.Helper()
	model, err := BuildMall(MallSpec{Floors: 3, ShopsPerFloor: 6})
	if err != nil {
		t.Fatal(err)
	}
	sim := NewSim(model, 42)
	em := DefaultErrorModel()
	em.DropoutProb = 0
	start := time.Date(2017, 1, 1, 10, 0, 0, 0, time.UTC)
	ds, truths, err := sim.Population(devices, start, window, em)
	if err != nil {
		t.Fatal(err)
	}
	sys := NewSystem(model)
	for _, es := range simul.TrainingSegments(ds, truths, 30) {
		for _, recs := range es.Segments {
			if err := sys.Editor().AddSegment(LabeledSegment{Event: es.Event, Device: recs[0].Device, Records: recs}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := sys.Train(""); err != nil {
		t.Fatal(err)
	}
	return sys, ds
}

// timeOrdered flattens a dataset into the global arrival order a live
// venue feed would deliver.
func timeOrdered(ds *Dataset) []Record {
	var all []Record
	for _, seq := range ds.Sequences() {
		all = append(all, seq.Records...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].At.Before(all[j].At) })
	return all
}

// TestOnlineMatchesBatchPopulation is the subsystem's acceptance test: for
// a gap-free simulated mall population, the online engine emits the
// identical triplet sequence per device as the batch System.Translate.
func TestOnlineMatchesBatchPopulation(t *testing.T) {
	sys, ds := onlineTestSystem(t, 8, 2*time.Hour)

	batch, err := sys.Translate(ds)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[DeviceID][]Triplet, len(batch))
	for _, r := range batch {
		want[r.Device] = r.Final.Triplets
	}

	var mu sync.Mutex
	got := make(map[DeviceID][]Triplet)
	eng, err := sys.NewOnline(OnlineConfig{
		Shards:        4,
		FlushEvery:    64,
		FlushInterval: -1,
		IdleTimeout:   -1,
		Emitter: OnlineEmitterFunc(func(e OnlineResult) {
			mu.Lock()
			got[e.Device] = append(got[e.Device], e.Triplet)
			mu.Unlock()
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range timeOrdered(ds) {
		if err := eng.Ingest(r); err != nil {
			t.Fatal(err)
		}
	}
	eng.Flush()
	sealedEarly := eng.Stats().TripletsOut
	eng.Close()

	if sealedEarly == 0 {
		t.Error("no triplet sealed before Close; the incremental path went untested")
	}
	st := eng.Stats()
	if st.RecordsIn != int64(ds.NumRecords()) || st.Late != 0 {
		t.Errorf("stats = %+v, want %d records in and 0 late", st, ds.NumRecords())
	}
	if len(got) != len(want) {
		t.Fatalf("online saw %d devices, batch %d", len(got), len(want))
	}
	for dev, wt := range want {
		gt := got[dev]
		if len(gt) != len(wt) {
			t.Errorf("device %s: online %d triplets, batch %d", dev, len(gt), len(wt))
			continue
		}
		for i := range wt {
			if !reflect.DeepEqual(gt[i], wt[i]) {
				t.Errorf("device %s triplet %d:\nonline: %+v\nbatch:  %+v", dev, i, gt[i], wt[i])
				break
			}
		}
	}
}
