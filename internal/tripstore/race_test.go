package tripstore

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"trips/internal/position"
	"trips/internal/storage"
)

// TestWarehouseConcurrentIngestQuerySnapshot hammers the warehouse the way
// a live deployment does — online emitter goroutines (one per engine
// shard) fanning sealed triplets in, readers paginating queries, and a
// maintenance goroutine flushing and snapshotting — and then verifies
// nothing was lost and a reopened warehouse answers identically. Modeled
// on internal/position/stream_race_test.go; run with -race.
func TestWarehouseConcurrentIngestQuerySnapshot(t *testing.T) {
	dir := t.TempDir()
	st, err := storage.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	w, err := New(Options{Log: &LogOptions{Store: st}})
	if err != nil {
		t.Fatal(err)
	}

	const (
		producers       = 4
		tripsPerDevice  = 50
		devicesPerShard = 3
	)
	em := w.Emitter(nil) // the engine-facing ingest path

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for d := 0; d < devicesPerShard; d++ {
				dev := fmt.Sprintf("p%d-d%d", p, d)
				for s := 0; s < tripsPerDevice; s++ {
					em.Emit(emission(dev, s, time.Duration(s)*time.Minute))
				}
			}
		}(p)
	}

	// Readers: full-scan pagination, device queries, region + time
	// queries, stats — all while ingest is running.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				spec := QuerySpec{Limit: 16}
				switch r {
				case 0:
					spec.Device = position.DeviceID("p0-d0")
				case 1:
					spec.Region = "nike"
					spec.Since = t0.Add(10 * time.Minute)
					spec.Until = t0.Add(30 * time.Minute)
				}
				for {
					page, err := w.Query(spec)
					if err != nil {
						t.Error(err)
						return
					}
					if page.Next == "" {
						break
					}
					spec.Cursor = page.Next
				}
				w.Stats()
			}
		}(r)
	}

	// Maintenance: periodic flush + snapshot racing the ingest.
	var maint sync.WaitGroup
	maint.Add(1)
	go func() {
		defer maint.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			var err error
			if i%2 == 0 {
				err = w.Flush()
			} else {
				err = w.Snapshot()
			}
			if err != nil {
				t.Error(err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	wg.Wait()
	close(stop)
	readers.Wait()
	maint.Wait()

	want := producers * devicesPerShard * tripsPerDevice
	if st := w.Stats(); st.Trips != want || st.Duplicates != 0 {
		t.Errorf("after concurrent ingest: %+v, want %d trips, 0 dupes", st, want)
	}
	ref, err := w.Query(QuerySpec{Region: "nike", Since: t0.Add(5 * time.Minute), Until: t0.Add(20 * time.Minute)})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// A reopened warehouse holds every trip and answers the same query
	// with the same page.
	st2, err := storage.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := New(Options{Log: &LogOptions{Store: st2}})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if got := w2.Stats().Trips; got != want {
		t.Errorf("reopened warehouse has %d trips, want %d", got, want)
	}
	got, err := w2.Query(QuerySpec{Region: "nike", Since: t0.Add(5 * time.Minute), Until: t0.Add(20 * time.Minute)})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Trips) != len(ref.Trips) {
		t.Errorf("reopened query: %d trips, want %d", len(got.Trips), len(ref.Trips))
	}
	for i := range got.Trips {
		if got.Trips[i] != ref.Trips[i] {
			t.Errorf("trip %d differs after reopen:\nlive:     %+v\nreopened: %+v", i, ref.Trips[i], got.Trips[i])
			break
		}
	}
}
