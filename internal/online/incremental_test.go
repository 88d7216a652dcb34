package online

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"trips/internal/geom"
	"trips/internal/position"
)

// shadowPair builds two engines over the same pipeline: the incremental one
// under test and a full-recompute shadow whose every flush re-translates
// the whole tail. Both run one shard with manual flushing so the record
// streams and flush cadences are identical.
func shadowPair(t *testing.T, pl Pipeline, maxTail int) (inc, full *Engine, incSink, fullSink *collectEmitter) {
	t.Helper()
	incSink, fullSink = newCollect(), newCollect()
	cfgInc := manualConfig(incSink, 1)
	cfgInc.FlushEvery = 8
	cfgInc.MaxTail = maxTail
	cfgFull := manualConfig(fullSink, 1)
	cfgFull.FlushEvery = 8
	cfgFull.MaxTail = maxTail
	cfgFull.fullRecompute = true
	var err error
	if inc, err = NewEngine(pl, cfgInc); err != nil {
		t.Fatal(err)
	}
	if full, err = NewEngine(pl, cfgFull); err != nil {
		t.Fatal(err)
	}
	return inc, full, incSink, fullSink
}

func assertSameEmissions(t *testing.T, label string, incSink, fullSink *collectEmitter) {
	t.Helper()
	if len(incSink.byDev) != len(fullSink.byDev) {
		t.Fatalf("%s: %d devices incremental, %d full", label, len(incSink.byDev), len(fullSink.byDev))
	}
	for dev, want := range fullSink.byDev {
		got := incSink.byDev[dev]
		if len(got) != len(want) {
			t.Fatalf("%s: device %s emitted %d triplets incrementally, %d on full recompute", label, dev, len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("%s: device %s triplet %d differs:\nincremental: %+v\nfull:        %+v", label, dev, i, got[i], want[i])
			}
		}
	}
}

// TestFlushIncrementalMatchesFull is the subsystem's differential lock:
// random record streams — noisy dwells and walks, floor flips, out-of-order
// arrivals, genuinely late records, 30-minute hard breaks — run through the
// incremental flush and a full-recompute shadow engine with the same flush
// cadence, and every emission must be identical. Run it under -race too:
// the incremental caches live inside shard-owned sessions.
func TestFlushIncrementalMatchesFull(t *testing.T) {
	pl := testPipeline(t)
	var incrementalFlushes int64
	for seed := uint64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			g := lcg(seed)
			inc, full, incSink, fullSink := shadowPair(t, pl, -1) // unbounded tails
			centers := []geom.Point{geom.Pt(5, 15), geom.Pt(25, 15), geom.Pt(15, 5)}
			at := t0
			dev := position.DeviceID("dev-1")
			sent := 0
			feed := func(r position.Record) {
				if err1, err2 := inc.Ingest(r), full.Ingest(r); err1 != nil || err2 != nil {
					t.Fatal(err1, err2)
				}
				sent++
				if sent%13 == 0 {
					inc.Flush()
					full.Flush()
				}
			}
			for leg := 0; leg < 12; leg++ {
				c := centers[int(g.next()*float64(len(centers)))%len(centers)]
				n := 30 + int(g.next()*60)
				for i := 0; i < n; i++ {
					p := geom.Pt(c.X+(g.next()-0.5)*2, c.Y+(g.next()-0.5)*2)
					r := position.Record{Device: dev, P: p, Floor: 1, At: at}
					switch {
					case g.next() < 0.05:
						// Out-of-order: backdate within the open window.
						r.At = at.Add(-time.Duration(g.next()*20) * time.Second)
					case g.next() < 0.02:
						// Genuinely late: far behind any seal frontier.
						r.At = t0.Add(-time.Hour)
					case g.next() < 0.03:
						r.Floor = 2 // floor glitch for the cleaner
					}
					feed(r)
					at = at.Add(time.Duration(2+g.next()*6) * time.Second)
				}
				if g.next() < 0.25 {
					at = at.Add(30 * time.Minute) // hard break: trims the tail
				}
			}
			inc.Flush()
			full.Flush()
			assertSameEmissions(t, "pre-close", incSink, fullSink)
			incrementalFlushes += inc.Stats().IncrementalFlushes
			if is, fs := inc.Stats(), full.Stats(); is.TripletsOut != fs.TripletsOut || is.Late != fs.Late || is.Trims != fs.Trims {
				t.Errorf("stats diverged: incremental %+v, full %+v", is, fs)
			}
			inc.Close()
			full.Close()
			assertSameEmissions(t, "post-close", incSink, fullSink)
		})
	}
	// Some seeds hard-break so often that every flush starts a fresh
	// epoch; across the suite the fast path must have been exercised.
	if incrementalFlushes == 0 {
		t.Error("no incremental flush reused a stable prefix; the fast path went untested")
	}
}

// TestFlushIncrementalMatchesFullStationary drives the MaxTail force-seal
// path: a stationary device whose single growing dwell never seals
// naturally, where every epoch reset must invalidate the caches.
func TestFlushIncrementalMatchesFullStationary(t *testing.T) {
	pl := testPipeline(t)
	g := lcg(31)
	inc, full, incSink, fullSink := shadowPair(t, pl, 150)
	recs := stayRecords(&g, "couch", geom.Pt(5, 15), 1, t0, 2000, 5*time.Second)
	for i, r := range recs {
		if err1, err2 := inc.Ingest(r), full.Ingest(r); err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if i%40 == 39 {
			inc.Flush()
			full.Flush()
		}
	}
	inc.Flush()
	full.Flush()
	if st := inc.Stats(); st.ForcedSeals == 0 {
		t.Error("stationary stream never force-sealed; MaxTail path untested")
	}
	inc.Close()
	full.Close()
	assertSameEmissions(t, "stationary", incSink, fullSink)
}
