package annotation

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"trips/internal/dsm"
	"trips/internal/geom"
	"trips/internal/position"
	"trips/internal/semantics"
	"trips/internal/testvenue"
)

// growAnnotator builds an annotator over the two-floor venue with a trained
// stay/pass-by model.
func growAnnotator(t *testing.T, cfg Config) *Annotator {
	t.Helper()
	m := testvenue.MustTwoFloor()
	em, err := TrainEventModel(trainingSet(t), NewGaussianNB(), cfg.Split)
	if err != nil {
		t.Fatal(err)
	}
	return NewAnnotator(m, em, cfg)
}

// coldAnnotate is the reference the warm annotator must reproduce: a fresh
// cache run over the whole sequence. For a pristine sequence that is the
// batch Annotate; for a trimmed suffix it is a fresh Incremental told so.
func coldAnnotate(a *Annotator, s *position.Sequence, suffix bool) *semantics.Sequence {
	if !suffix {
		return a.Annotate(s)
	}
	cold := a.NewIncremental()
	cold.Reset(true)
	return cold.Annotate(s, 0)
}

func assertSameAnnotation(t *testing.T, seed uint32, step int, inc, full []semantics.Triplet) {
	t.Helper()
	if len(inc) != len(full) {
		t.Fatalf("seed %d step %d: %d triplets incremental, %d full", seed, step, len(inc), len(full))
	}
	for i := range full {
		if !reflect.DeepEqual(inc[i], full[i]) {
			t.Fatalf("seed %d step %d: triplet %d differs:\nincremental: %+v\nfull:        %+v", seed, step, i, inc[i], full[i])
		}
	}
}

// TestIncrementalAnnotateMatchesFull drives randomized growing sequences —
// dwells, hall walks, floor flips, dropout gaps, and bounded out-of-order
// inserts — through Incremental.Annotate with a trailing-lag stable hint
// and asserts the output equals a from-scratch (cold) annotation after
// every step. The second variant is the trimmed tail the engine annotates
// after a hard break: Reset(true) on both the warm annotator and the cold
// reference, with consolidation off.
func TestIncrementalAnnotateMatchesFull(t *testing.T) {
	for _, suffix := range []bool{false, true} {
		cfg := DefaultConfig()
		if suffix {
			cfg.MergeGap = 0
		}
		a := growAnnotator(t, cfg)
		for seed := uint32(1); seed <= 8; seed++ {
			st := seed
			next := func(mod uint32) uint32 { st = st*1664525 + 1013904223; return (st >> 8) % mod }
			inc := a.NewIncremental()
			inc.Reset(suffix)
			s := position.NewSequence("d")
			at := t0
			const lag = 3 * time.Minute
			stable := 0
			reused := false
			for step := 0; step < 25; step++ {
				burst := int(next(20)) + 1
				for i := 0; i < burst; i++ {
					var p geom.Point
					fl := dsm.FloorID(1)
					switch next(10) {
					case 0, 1, 2: // hall walk
						p = geom.Pt(2+float64(next(28)), 3+float64(next(4)))
					case 3: // second floor dwell
						p = geom.Pt(5+float64(next(3)), 14+float64(next(3)))
						fl = 2
					default: // dwell near a shop
						p = geom.Pt(4+float64(next(4)), 13+float64(next(5)))
					}
					rt := at
					if next(9) == 0 && stable > 0 {
						// Out-of-order insert behind the watermark but after
						// the stable boundary.
						back := time.Duration(next(uint32(lag/time.Second))) * time.Second
						if cand := at.Add(-back); cand.After(s.Records[stable-1].At) {
							rt = cand
						}
					}
					s.Append(position.Record{Device: "d", P: p, Floor: fl, At: rt})
					step := time.Duration(3+int(next(5))) * time.Second
					if next(30) == 0 {
						step = 6 * time.Minute // dropout gap
					}
					at = at.Add(step)
				}
				got := inc.Annotate(s, stable)
				want := coldAnnotate(a, s, suffix)
				assertSameAnnotation(t, seed, step, got.Triplets, want.Triplets)
				if stable > 0 {
					reused = true
				}
				// Next call's stable hint: records more than lag behind the
				// end existed this call and can no longer change or shift.
				floor := s.End().Add(-lag)
				stable = 0
				for stable < s.Len() && !s.Records[stable].At.After(floor) {
					stable++
				}
			}
			if !reused {
				t.Errorf("seed %d: stable hint never advanced; incremental path untested", seed)
			}
		}
	}
}

// TestIncrementalAnnotateUnchanged: re-annotating an unchanged sequence
// with stable == Len() (every record behind the admission floor — e.g. a
// provisional snapshot query between arrivals) must not panic and must
// still match the full annotation.
func TestIncrementalAnnotateUnchanged(t *testing.T) {
	a := growAnnotator(t, DefaultConfig())
	g := lcg(9)
	s := seqFrom(stayRecords(&g, geom.Pt(5, 15), 1, t0, 20, 5*time.Second))
	inc := a.NewIncremental()
	want := a.Annotate(s)
	got := inc.Annotate(s, 0)
	assertSameAnnotation(t, 0, 0, got.Triplets, want.Triplets)
	got = inc.Annotate(s, s.Len())
	assertSameAnnotation(t, 0, 1, got.Triplets, want.Triplets)
}

// TestIncrementalAnnotateReset: after Reset (or a shrunk sequence) the
// incremental annotator recovers with a full recompute.
func TestIncrementalAnnotateReset(t *testing.T) {
	a := growAnnotator(t, DefaultConfig())
	g := lcg(5)
	s := seqFrom(
		stayRecords(&g, geom.Pt(5, 15), 1, t0, 80, 5*time.Second),
		walkRecords(&g, geom.Pt(5, 7), geom.Pt(27, 7), 1, t0.Add(7*time.Minute), 2*time.Second),
		stayRecords(&g, geom.Pt(25, 15), 1, t0.Add(12*time.Minute), 80, 5*time.Second),
	)
	inc := a.NewIncremental()
	want := a.Annotate(s)
	got := inc.Annotate(s, 0)
	assertSameAnnotation(t, 0, 0, got.Triplets, want.Triplets)

	// Shrink to a trimmed suffix: the stale cache must not leak through.
	trimmed := &position.Sequence{Device: "d", Records: s.Records[100:]}
	got = inc.Annotate(trimmed, 0)
	want = a.Annotate(trimmed)
	assertSameAnnotation(t, 0, 1, got.Triplets, want.Triplets)

	inc.Reset(false)
	got = inc.Annotate(s, 0)
	want = a.Annotate(s)
	assertSameAnnotation(t, 0, 2, got.Triplets, want.Triplets)

	// Reset releases the buffers sized to the long sequence: the short
	// tail that follows a MaxTail trim must not pin them.
	inc.Reset(true)
	short := &position.Sequence{Device: "d", Records: s.Records[s.Len()-20:]}
	inc.Annotate(short, 0)
	if c := cap(inc.cols.At); c >= s.Len() {
		t.Errorf("after Reset the column projection keeps capacity %d, sized to the %d-record sequence before it", c, s.Len())
	}
}

// shopperDay strings dwells on both floors and hall walks together, with
// gaps that sometimes exceed MaxGap, until it has n records.
func shopperDay(g *lcg, n int) []position.Record {
	var out []position.Record
	at := t0
	add := func(rs []position.Record, gap time.Duration) {
		out = append(out, rs...)
		at = rs[len(rs)-1].At.Add(gap)
	}
	for len(out) < n {
		add(stayRecords(g, geom.Pt(5, 15), 1, at, 10+int(g.next()*40), 5*time.Second), 5*time.Second)
		add(walkRecords(g, geom.Pt(5, 7), geom.Pt(27, 7), 1, at, 2*time.Second), 5*time.Second)
		add(stayRecords(g, geom.Pt(6, 15), 2, at, 5+int(g.next()*30), 5*time.Second),
			time.Duration(5+g.next()*400)*time.Second)
	}
	return out[:n]
}

// assertCachesFollow checks that every cached snippet aliases s's record
// array — the one the last Annotate was given — and not an older one, and
// that the spare capacity past each cache list's length holds no records.
func assertCachesFollow(t *testing.T, step, i int, inc *Incremental, s *position.Sequence) {
	t.Helper()
	check := func(list string, sns []Snippet) {
		for _, sn := range sns {
			if len(sn.Records) != sn.Last-sn.First+1 || &sn.Records[0] != &s.Records[sn.First] {
				t.Fatalf("step %d incremental %d: a cached %s snippet [%d, %d] does not alias the current record array", step, i, list, sn.First, sn.Last)
			}
		}
		for _, sn := range sns[len(sns):cap(sns)] {
			if sn.Records != nil {
				t.Fatalf("step %d incremental %d: a stale %s snippet past the list's end still holds records", step, i, list)
			}
		}
	}
	snippets := func(gs []regionSnippet) []Snippet {
		sns := make([]Snippet, cap(gs))
		for j, g := range gs[:cap(gs)] {
			sns[j] = g.sn
		}
		return sns[:len(gs)]
	}
	check("pre-merge", inc.snips)
	check("merged", inc.merged)
	check("refined", snippets(inc.refined))
	check("consolidated", snippets(inc.groups))
}

// TestIncrementalSharedWork is a shard's sessions taking turns: two
// Incrementals over sequences of different lengths share one Work and
// alternate Annotate calls, each call on a fresh copy of its records the
// way a growing tail moves to a larger array. Each must equal a twin with
// a private Work — compared after both calls of a round, so a result that
// aliased the Work would show the other call's data — including across a
// Reset(true), which must keep the shared Work, and a shrunk sequence. The
// caches must follow their records to the new array, and the Work must be
// left holding none.
func TestIncrementalSharedWork(t *testing.T) {
	a := growAnnotator(t, DefaultConfig())
	g := lcg(11)
	days := [2][]position.Record{shopperDay(&g, 700), shopperDay(&g, 120)}
	growth := [2]int{17, 3}
	var shared Work
	incs := [2]*Incremental{a.NewIncremental(), a.NewIncremental()}
	twins := [2]*Incremental{a.NewIncremental(), a.NewIncremental()}
	for _, inc := range incs {
		inc.Work = &shared
	}
	const lag = 3 * time.Minute
	var starts, ends, stables [2]int
	reused := false
	for step := 0; step < 42; step++ {
		if step == 21 {
			incs[0].Reset(true)
			twins[0].Reset(true)
			if incs[0].Work != &shared {
				t.Fatal("Reset dropped the shared Work")
			}
		}
		if step == 30 {
			// Shrink without a Reset: Annotate falls back to a full
			// recompute, and its lists come out far shorter than the cached
			// ones they overwrite.
			starts[0] = ends[0] - 40
		}
		var seqs [2]*position.Sequence
		var got [2]*semantics.Sequence
		for i, inc := range incs {
			ends[i] = min(ends[i]+growth[i], len(days[i]))
			seqs[i] = &position.Sequence{Device: "d", Records: append([]position.Record(nil), days[i][starts[i]:ends[i]]...)}
			got[i] = inc.Annotate(seqs[i], stables[i])
		}
		for i, inc := range incs {
			want := twins[i].Annotate(seqs[i], stables[i])
			assertSameAnnotation(t, uint32(i), step, got[i].Triplets, want.Triplets)
			assertCachesFollow(t, step, i, inc, seqs[i])
			reused = reused || stables[i] > 0
			floor := seqs[i].End().Add(-lag)
			stables[i] = sort.Search(seqs[i].Len(), func(j int) bool { return seqs[i].Records[j].At.After(floor) })
		}
		for _, sn := range shared.merged[:cap(shared.merged)] {
			if sn.Records != nil {
				t.Fatalf("step %d: the shared Work still holds a merged snippet's records", step)
			}
		}
		for _, g := range shared.groups[:cap(shared.groups)] {
			if g.sn.Records != nil {
				t.Fatalf("step %d: the shared Work still holds a consolidated snippet's records", step)
			}
		}
	}
	if !reused {
		t.Error("stable hint never advanced; the incremental path went untested")
	}
}
