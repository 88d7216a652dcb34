package cleaning

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"time"

	"trips/internal/dsm"
	"trips/internal/geom"
	"trips/internal/position"
	"trips/internal/testvenue"
)

// changeKeys renders a report's changes as a sorted multiset for
// order-insensitive comparison: CleanFrom lists prefix repairs before
// suffix repairs instead of interleaved by pass, and guarantees only set
// equality.
func changeKeys(rep Report) []string {
	keys := make([]string, len(rep.Changes))
	for i, ch := range rep.Changes {
		keys[i] = fmt.Sprintf("%d/%s/%v/%v", ch.Index, ch.Kind, ch.Before, ch.After)
	}
	sort.Strings(keys)
	return keys
}

func assertSameClean(t *testing.T, step int, inc *position.Sequence, incRep Report, full *position.Sequence, fullRep Report) {
	t.Helper()
	if inc.Len() != full.Len() {
		t.Fatalf("step %d: incremental len %d, full %d", step, inc.Len(), full.Len())
	}
	for i := range full.Records {
		a, b := inc.Records[i], full.Records[i]
		if a.P != b.P || a.Floor != b.Floor || !a.At.Equal(b.At) {
			t.Fatalf("step %d: record %d differs:\nincremental: (%.17g, %.17g) floor %d\nfull:        (%.17g, %.17g) floor %d",
				step, i, a.P.X, a.P.Y, a.Floor, b.P.X, b.P.Y, b.Floor)
		}
	}
	if incRep.Total != fullRep.Total || incRep.Snapped != fullRep.Snapped ||
		incRep.FloorFixed != fullRep.FloorFixed || incRep.Interpolated != fullRep.Interpolated {
		t.Fatalf("step %d: report counts differ:\nincremental: %+v\nfull:        %+v", step, incRep, fullRep)
	}
	ik, fk := changeKeys(incRep), changeKeys(fullRep)
	if len(ik) != len(fk) {
		t.Fatalf("step %d: %d changes vs %d", step, len(ik), len(fk))
	}
	for i := range ik {
		if ik[i] != fk[i] {
			t.Fatalf("step %d: change sets differ at %d:\nincremental: %s\nfull:        %s", step, i, ik[i], fk[i])
		}
	}
}

// TestCleanFromMatchesClean drives randomized growing sequences — noisy
// walks with teleport glitches, floor flips, and bounded out-of-order
// inserts — through CleanFrom and asserts that after every growth step the
// stitched output is identical to a from-scratch Clean of the same
// sequence.
func TestCleanFromMatchesClean(t *testing.T) {
	m := testvenue.MustTwoFloor()
	c := New(m)
	for seed := uint32(1); seed <= 12; seed++ {
		st := seed
		next := func(mod uint32) uint32 {
			st = st*1664525 + 1013904223
			return (st >> 8) % mod
		}
		s := position.NewSequence("d")
		var cs State
		at := t0
		x, y := 5.0, 5.0
		// insertFloor trails the sequence end by a fixed lag, the way the
		// online engine's seal frontier trails its watermark.
		const lag = 40 * time.Second
		floor := time.Time{}
		for step := 0; step < 30; step++ {
			burst := int(next(6)) + 1
			for i := 0; i < burst; i++ {
				// Mostly a noisy walk; sometimes a glitch.
				x += float64(next(5)) - 2
				y += float64(next(5)) - 2
				p := geom.Pt(x, y)
				fl := dsm.FloorID(1)
				switch next(12) {
				case 0:
					p = geom.Pt(float64(next(45))-2, float64(next(24))-2) // teleport
				case 1:
					fl = 2 // floor flip
				}
				rt := at
				if next(7) == 0 && !floor.IsZero() {
					// Out-of-order insert, still after the admission floor.
					back := time.Duration(next(uint32(lag/time.Second))) * time.Second
					if cand := at.Add(-back); cand.After(floor) {
						rt = cand
					}
				}
				s.Append(position.Record{Device: "d", P: p, Floor: fl, At: rt})
				at = at.Add(time.Duration(2+int(next(6))) * time.Second)
			}
			if s.End().Sub(t0) > lag {
				floor = s.End().Add(-lag)
			}
			inc, incRep := c.CleanFrom(&cs, s, floor)
			full, fullRep := c.Clean(s)
			assertSameClean(t, step, inc, incRep, full, fullRep)
			if cs.stable > 0 && cs.StableSince() > cs.stable {
				t.Fatalf("step %d: StableSince %d > Stable %d", step, cs.StableSince(), cs.stable)
			}
		}
		if cs.stable == 0 {
			t.Errorf("seed %d: stable prefix never advanced; the incremental path went untested", seed)
		}
	}
}

// TestCleanFromZeroFloor: with no admission guarantee every call must be a
// full re-clean (stable prefix pinned at 0) and still match Clean.
func TestCleanFromZeroFloor(t *testing.T) {
	c := New(testvenue.MustTwoFloor())
	s := position.NewSequence("d")
	var cs State
	for i := 0; i < 50; i++ {
		s.Append(rec(float64(2+i%20), 5, 1, time.Duration(i)*5*time.Second))
		inc, incRep := c.CleanFrom(&cs, s, time.Time{})
		full, fullRep := c.Clean(s)
		assertSameClean(t, i, inc, incRep, full, fullRep)
		if cs.stable != 0 {
			t.Fatalf("step %d: stable = %d with a zero insert floor", i, cs.stable)
		}
	}
}

// TestCleanFromReset: a State reused after Reset (and one fed a shrunk
// sequence, the trim case) recovers with a full re-clean.
func TestCleanFromReset(t *testing.T) {
	c := New(testvenue.MustTwoFloor())
	var cs State
	s := position.NewSequence("d")
	for i := 0; i < 40; i++ {
		s.Append(rec(float64(2+i%10), 5, 1, time.Duration(i)*5*time.Second))
	}
	c.CleanFrom(&cs, s, s.End())

	// Shrink: a trimmed tail must fall back to a full clean, not stitch
	// against stale indexes.
	trimmed := &position.Sequence{Device: "d", Records: append([]position.Record(nil), s.Records[30:]...)}
	inc, incRep := c.CleanFrom(&cs, trimmed, trimmed.End())
	full, fullRep := c.Clean(trimmed)
	assertSameClean(t, 0, inc, incRep, full, fullRep)

	cs.Reset()
	if cs.stable != 0 || cs.StableSince() != 0 {
		t.Fatal("Reset left a stable prefix")
	}
	inc, incRep = c.CleanFrom(&cs, trimmed, trimmed.End())
	assertSameClean(t, 1, inc, incRep, full, fullRep)
}

// glitchyWalk returns n records of a noisy walk from at, 2–7 s apart, with
// a teleport glitch one record in twelve: real repairs for the cleaner to
// carry in its cache.
func glitchyWalk(seed uint32, n int, at time.Time) *position.Sequence {
	st := seed
	next := func(mod uint32) uint32 { st = st*1664525 + 1013904223; return (st >> 8) % mod }
	s := position.NewSequence("d")
	x, y := 5.0, 5.0
	for i := 0; i < n; i++ {
		x += float64(next(5)) - 2
		y += float64(next(5)) - 2
		p := geom.Pt(x, y)
		if next(12) == 0 {
			p = geom.Pt(float64(next(45))-2, float64(next(24))-2) // teleport
		}
		s.Append(position.Record{Device: "d", P: p, Floor: 1, At: at})
		at = at.Add(time.Duration(2+int(next(6))) * time.Second)
	}
	return s
}

// mirrored returns s reflected across the venue's 40 m width: the same
// times and glitches, with every record somewhere else.
func mirrored(s *position.Sequence) *position.Sequence {
	out := s.Clone()
	for i := range out.Records {
		out.Records[i].P.X = 40 - out.Records[i].P.X
	}
	return out
}

// repairWalk is n records of a slow walk up and down the floor-1 hallway,
// 3 s apart, in which every 30 records one record reports floor 2 (a floor
// fix, after which the pass detects again), one teleports into a shop (an
// interpolation) and one sits in the dividing wall (a snap): each repair
// moves a record that the pass has already located.
func repairWalk(n int) *position.Sequence {
	s := position.NewSequence("d")
	for i := 0; i < n; i++ {
		x := 6 + math.Abs(float64(i%56-28))
		r := rec(x, 5, 1, time.Duration(3*i)*time.Second)
		switch i % 30 {
		case 8:
			r.Floor = 2
		case 16:
			r.P = geom.Pt(25, 15)
		case 24:
			r.P.Y = 10.2
		}
		s.Append(r)
	}
	return s
}

// TestCleanFromSharedWork is a shard's sessions taking turns: two States
// share one Work and alternate CleanFrom calls over growing sequences.
// Nothing one call leaves in the Work may reach the other's result, so each
// must equal a twin that cleans with a private Work — compared after both
// calls of a round, so a result that aliased the shared Work would show the
// other call's data — and a batch Clean. The inputs pair walks of different
// lengths; walks with the same indexes at different places, where a snap
// kept across calls or looked up by index would price one walk's records
// at the other's locations; and walks whose repairs move records between
// the detections of one pass.
func TestCleanFromSharedWork(t *testing.T) {
	c := New(testvenue.MustTwoFloor())
	cases := []struct {
		name   string
		walks  [2]*position.Sequence
		growth [2]int
	}{
		{"different lengths", [2]*position.Sequence{glitchyWalk(3, 600, t0), glitchyWalk(5, 90, t0)}, [2]int{13, 2}},
		{"same indexes elsewhere", [2]*position.Sequence{glitchyWalk(7, 300, t0), mirrored(glitchyWalk(7, 300, t0))}, [2]int{7, 7}},
		{"repairs move records", [2]*position.Sequence{repairWalk(240), mirrored(repairWalk(240))}, [2]int{5, 5}},
	}
	for _, tc := range cases {
		for _, noChanges := range []bool{false, true} {
			var shared Work
			var states, twins [2]State
			for i := range states {
				states[i] = State{NoChanges: noChanges, Work: &shared}
				twins[i] = State{NoChanges: noChanges}
			}
			var ends [2]int
			for step := 0; ends[0] < tc.walks[0].Len() || ends[1] < tc.walks[1].Len(); step++ {
				var seqs [2]*position.Sequence
				var floors [2]time.Time
				var outs [2]*position.Sequence
				var reps [2]Report
				for i := range states {
					ends[i] = min(ends[i]+tc.growth[i], tc.walks[i].Len())
					seqs[i] = tc.walks[i].Slice(0, ends[i])
					floors[i] = seqs[i].End().Add(-40 * time.Second)
					outs[i], reps[i] = c.CleanFrom(&states[i], seqs[i], floors[i])
				}
				for i := range states {
					want, wantRep := c.CleanFrom(&twins[i], seqs[i], floors[i])
					assertSameClean(t, step, outs[i], reps[i], want, wantRep)
					full, fullRep := c.Clean(seqs[i])
					if noChanges {
						fullRep.Changes = nil
					}
					assertSameClean(t, step, outs[i], reps[i], full, fullRep)
					for j := 0; j < want.Len(); j++ {
						if states[i].Repaired(j) != twins[i].Repaired(j) {
							t.Fatalf("%s noChanges %v step %d state %d: Repaired(%d) differs from the private-Work twin", tc.name, noChanges, step, i, j)
						}
					}
					if states[i].stable != twins[i].stable || states[i].StableSince() != twins[i].StableSince() {
						t.Fatalf("%s noChanges %v step %d state %d: stable prefix %d/%d, twin %d/%d", tc.name, noChanges, step, i,
							states[i].stable, states[i].StableSince(), twins[i].stable, twins[i].StableSince())
					}
				}
			}
			for i := range states {
				if states[i].stable == 0 {
					t.Errorf("%s noChanges %v state %d: stable prefix never advanced; the incremental path went untested", tc.name, noChanges, i)
				}
				if states[i].Work != &shared {
					t.Errorf("%s noChanges %v state %d: CleanFrom swapped out the shared Work", tc.name, noChanges, i)
				}
			}
		}
	}
	// The repairs repairWalk is built to need, each exactly once: a record
	// located before its floor fix and priced there afterwards would fail
	// the re-detection and be interpolated too.
	for _, w := range []*position.Sequence{repairWalk(240), mirrored(repairWalk(240))} {
		out, rep := c.Clean(w)
		if rep.FloorFixed != 8 || rep.Interpolated != 8 || rep.Snapped != 8 {
			t.Errorf("repairWalk: %d floor fixes, %d interpolations, %d snaps; want 8 of each", rep.FloorFixed, rep.Interpolated, rep.Snapped)
		}
		for i, r := range out.Records {
			if r.Floor != 1 {
				t.Errorf("repairWalk: record %d left on floor %d", i, r.Floor)
			}
		}
	}
}
