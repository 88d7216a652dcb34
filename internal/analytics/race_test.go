package analytics

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"trips/internal/dsm"
	"trips/internal/position"
	"trips/internal/tripstore"
)

// TestConcurrentIngestQuerySubscribe hammers the engine from every side at
// once — parallel producers (as the online engine's shards would), query
// readers, and subscribers churning on and off — and then checks the folded
// totals. Run under -race, this is the concurrency-safety proof for the
// engine lock and the hub.
func TestConcurrentIngestQuerySubscribe(t *testing.T) {
	e := New(Config{Shards: 4, BucketWidth: time.Second, Buckets: 3600})
	const producers, perProducer = 8, 200

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			dev := position.DeviceID(fmt.Sprintf("dev-%d", p))
			at := t0
			for i := 0; i < perProducer; i++ {
				r := fmt.Sprintf("r%d", (p+i)%5)
				e.IngestTrip(dev, trip(r, at, 10*time.Second))
				at = at.Add(15 * time.Second)
			}
		}(p)
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				e.Occupancy(0)
				e.Flows("", 10)
				e.TopK(3, time.Minute)
				e.Dwell("r1")
				e.Stats()
				e.Snapshot()
			}
		}()
	}

	// Subscriber churn: connect, read a little or nothing, disconnect. Some
	// get evicted as slow consumers, some close themselves; both paths must
	// be safe against concurrent publishes.
	var churn sync.WaitGroup
	for c := 0; c < 6; c++ {
		churn.Add(1)
		go func(c int) {
			defer churn.Done()
			for i := 0; i < 20; i++ {
				var sub *Subscription
				if c%2 == 0 {
					sub = e.Subscribe(nil)
				} else {
					sub = e.Subscribe([]dsm.RegionID{"r1", "r3"})
				}
				if c%3 == 0 {
					// Slow consumer: never reads; eviction races Close.
					time.Sleep(time.Millisecond)
				} else {
					for j := 0; j < 4; j++ {
						select {
						case _, ok := <-sub.C():
							if !ok {
								break
							}
						default:
						}
					}
				}
				sub.Close()
			}
		}(c)
	}

	wg.Wait()
	close(stop)
	readers.Wait()
	churn.Wait()

	st := e.Stats()
	if want := int64(producers * perProducer); st.Trips != want {
		t.Errorf("Trips = %d, want %d", st.Trips, want)
	}
	if st.Devices != producers || st.OutOfOrder != 0 {
		t.Errorf("stats = %+v", st)
	}
	var visits int64
	for _, o := range e.Occupancy(0) {
		visits += o.Visits
	}
	if visits != st.Trips {
		t.Errorf("visit sum %d ≠ trips %d", visits, st.Trips)
	}
	if st.Subscribers != 0 {
		t.Errorf("%d subscribers leaked after churn", st.Subscribers)
	}
}

// TestSnapshotIsOneConsistentCut: a dump taken under live folds and a
// concurrent Rebuild is one instant of one view generation. Every trip here
// carries a region, so in any single cut the trip counter equals the visit
// total and no more devices are somewhere than have folded at all; a dump
// stitched from separately locked reads, or one that straddles the rebuild
// swap, breaks one of the two.
func TestSnapshotIsOneConsistentCut(t *testing.T) {
	w, err := tripstore.New(tripstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := New(Config{BucketWidth: time.Second, Buckets: 3600})
	const writers, devicesPerWriter, tripsPerDevice = 4, 40, 6

	var producing sync.WaitGroup
	for p := 0; p < writers; p++ {
		producing.Add(1)
		go func(p int) {
			defer producing.Done()
			for i := 0; i < tripsPerDevice; i++ {
				for d := 0; d < devicesPerWriter; d++ {
					dev := position.DeviceID(fmt.Sprintf("dev-%d-%d", p, d))
					tr := trip(fmt.Sprintf("r%d", (p+d+i)%5), t0.Add(time.Duration(i)*15*time.Second), 10*time.Second)
					// The tee order: stored first, then folded.
					if err := w.Insert(tripstore.Trip{Device: dev, Seq: i, Triplet: tr}); err != nil {
						t.Error(err)
						return
					}
					e.IngestTrip(dev, tr)
				}
			}
		}(p)
	}

	done := make(chan struct{})
	var watching sync.WaitGroup
	watching.Add(2)
	go func() {
		defer watching.Done()
		for {
			snap := e.Snapshot()
			var visits int64
			occupants := 0
			for _, o := range snap.Occupancy {
				visits += o.Visits
				occupants += o.Occupancy
			}
			if snap.Trips != visits {
				t.Errorf("dump mixes instants: %d trips, %d visits", snap.Trips, visits)
				return
			}
			if occupants > writers*devicesPerWriter {
				t.Errorf("dump places %d devices, only %d exist", occupants, writers*devicesPerWriter)
				return
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	go func() {
		defer watching.Done()
		for {
			if err := e.Rebuild(w); err != nil {
				t.Error(err)
				return
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()

	producing.Wait()
	close(done)
	watching.Wait()
	if st := e.Stats(); st.Trips != writers*devicesPerWriter*tripsPerDevice || st.OutOfOrder != 0 {
		t.Errorf("settled stats = %+v, want every trip folded once and none dropped", st)
	}
}
