package cleaning

import (
	"testing"
	"time"

	"trips/internal/testvenue"
)

// TestCleanFromSteadyStateZeroAlloc guards the incremental cleaner's
// steady state: with the change-list materialization off (NoChanges, the
// online engine's posture) and the caches warm, re-cleaning unchanged
// sequences must not allocate — every buffer the suffix re-clean touches is
// Work scratch sized on earlier calls. Two States of different lengths
// share one Work and alternate, the way a shard's sessions take turns: the
// shared buffers settle at the larger footprint and stay there. This is
// what holds the per-flush clean stage at amortized zero allocations on a
// long session. Every speed check runs through it: the snap memo
// (snapOf, snapAt) and dsm's Model.WalkingDistanceSnapped, which dsm's own
// guard names because a guard may only name its own package's functions.
//
//trips:guards State.Repaired
//trips:guards stableCut
//trips:guards Cleaner.snapOf
//trips:guards Cleaner.snapAt
func TestCleanFromSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inhibits inlining and distorts allocation counts")
	}
	c := New(testvenue.MustTwoFloor())
	var shared Work
	long, short := glitchyWalk(11, 400, t0), glitchyWalk(17, 150, t0)
	longFloor, shortFloor := long.End().Add(-40*time.Second), short.End().Add(-40*time.Second)
	a := State{NoChanges: true, Work: &shared}
	b := State{NoChanges: true, Work: &shared}
	round := func() {
		c.CleanFrom(&a, long, longFloor)
		c.CleanFrom(&b, short, shortFloor)
	}
	// Warm the caches: the first round is the full clean, the second sizes
	// every suffix buffer.
	round()
	round()
	if a.stable == 0 || b.stable == 0 {
		t.Fatal("stable prefix never advanced; the steady state under test never forms")
	}

	if avg := testing.AllocsPerRun(200, round); avg != 0 {
		t.Errorf("steady-state CleanFrom over a shared Work allocates %.2f times per round, want 0", avg)
	}
}
