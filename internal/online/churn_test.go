//go:build !race

// The heap bound below is meaningless under the race detector's
// instrumentation, so this file is left out of -race builds.

package online

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"trips/internal/geom"
	"trips/internal/position"
)

// liveHeap is the heap still reachable after two full collections.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestIdleEvictionLeavesNothingBehind is the MAC-randomisation churn the
// idle eviction exists for: 200 000 distinct long device ids report once
// each and go quiet. Once the idle sweep has finalized them all, the engine
// must hold nothing per device — live heap returns to where it started.
func TestIdleEvictionLeavesNothingBehind(t *testing.T) {
	const (
		waves   = 20
		perWave = 10_000
		slackMB = 4
	)
	pl := testPipeline(t)
	eng, err := NewEngine(pl, Config{
		Shards:        2,
		FlushInterval: 5 * time.Millisecond,
		IdleTimeout:   time.Minute,
		Emitter:       EmitterFunc(func(Emission) {}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	// The engine's clock is the test's: advancing it past IdleTimeout is
	// what makes a wave idle.
	var clock atomic.Int64
	clock.Store(t0.UnixNano())
	eng.now = func() time.Time { return time.Unix(0, clock.Load()) }

	before := liveHeap()

	pad := strings.Repeat("f", 80)
	for w := 0; w < waves; w++ {
		for i := 0; i < perWave; i++ {
			dev := position.DeviceID(fmt.Sprintf("mac-%s-%02d-%05d", pad, w, i))
			if err := eng.Ingest(position.Record{Device: dev, P: geom.Pt(5, 5), Floor: 1, At: t0}); err != nil {
				t.Fatal(err)
			}
		}
		eng.Flush() // every record of the wave has reached its session
		clock.Add(int64(2 * time.Minute))
		want := int64((w + 1) * perWave)
		for deadline := time.Now().Add(30 * time.Second); eng.Stats().IdleFinalized != want; {
			if time.Now().After(deadline) {
				t.Fatalf("wave %d: IdleFinalized = %d, want %d", w, eng.Stats().IdleFinalized, want)
			}
			time.Sleep(time.Millisecond)
		}
	}

	after := liveHeap()
	if st := eng.Stats(); st.Sessions != waves*perWave || st.IdleFinalized != waves*perWave ||
		st.OpenSessions != 0 || st.TailRecords != 0 {
		t.Fatalf("stats = %+v, want %d sessions opened and idle-finalized, none left open", st, waves*perWave)
	}
	if grew := int64(after) - int64(before); grew > slackMB<<20 {
		t.Errorf("live heap grew %.1f MB over %d evicted devices, want under %d MB: the engine keeps something per device",
			float64(grew)/(1<<20), waves*perWave, slackMB)
	}
}
