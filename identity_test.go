package trips

import (
	"sort"
	"sync"
	"testing"
	"time"

	"trips/internal/experiments"
	"trips/internal/simul"
)

// assertIdentity checks that per device, From strictly increases in batch
// Final and in the online engine's emissions: (device, From) is the
// identity the warehouse keys trips on and the views fold by, so the
// translator must never repeat it.
func assertIdentity(t *testing.T, ds *Dataset, translate func(*Dataset) []Result, newOnline func(OnlineConfig) (*OnlineEngine, error)) {
	t.Helper()
	check := func(path string, dev DeviceID, trips []Triplet) {
		t.Helper()
		for i := 1; i < len(trips); i++ {
			if a, b := trips[i-1], trips[i]; !b.From.After(a.From) {
				t.Errorf("%s: device %s repeats or reverses From at %d: (%s, %s, %v-%v inferred=%v) then (%s, %s, %v-%v inferred=%v)",
					path, dev, i, a.Event, a.Region, a.From.Format(time.TimeOnly), a.To.Format(time.TimeOnly), a.Inferred,
					b.Event, b.Region, b.From.Format(time.TimeOnly), b.To.Format(time.TimeOnly), b.Inferred)
				return
			}
		}
	}
	for _, r := range translate(ds) {
		check("batch", r.Device, r.Final.Triplets)
	}

	var mu sync.Mutex
	emitted := make(map[DeviceID][]Triplet)
	eng, err := newOnline(OnlineConfig{
		Shards:        2,
		FlushInterval: -1,
		IdleTimeout:   -1,
		Emitter: OnlineEmitterFunc(func(e OnlineResult) {
			mu.Lock()
			emitted[e.Device] = append(emitted[e.Device], e.Triplet)
			mu.Unlock()
		}),
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
	for dev, trips := range emitted {
		check("online", dev, trips)
	}
}

// TestTripIdentity runs the identity check over the golden corpus, which
// has zero-length triplets but none followed by a gap long enough to fill,
// and over the benchmark's seed-1 fleet, which has one-record observed
// triplets followed by a long gap (device 3a.95.266 passes Hall 2F at
// 11:45:36 for an instant): an inferred fill starting at that instant would
// repeat the observed triplet's (device, From).
func TestTripIdentity(t *testing.T) {
	t.Run("golden", func(t *testing.T) {
		sys, ds := goldenSystem(t)
		translate := func(ds *Dataset) []Result {
			results, err := sys.Translate(ds)
			if err != nil {
				t.Fatal(err)
			}
			return results
		}
		assertIdentity(t, ds, translate, sys.NewOnline)
	})
	t.Run("fleet", func(t *testing.T) {
		env, err := experiments.NewEnv(experiments.EnvSpec{
			Floors: 3, Shops: 6, Devices: 500, Seed: 1,
			Window: 4 * time.Hour, Errors: simul.DefaultErrorModel(),
		})
		if err != nil {
			t.Fatal(err)
		}
		assertIdentity(t, env.Raw, env.Trans.Translate, env.Trans.NewOnline)
	})
}
