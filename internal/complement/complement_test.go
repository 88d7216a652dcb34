package complement

import (
	"reflect"
	"testing"
	"time"

	"trips/internal/dsm"
	"trips/internal/semantics"
	"trips/internal/testvenue"
)

var t0 = time.Date(2017, 1, 2, 10, 0, 0, 0, time.UTC)

func trip(ev semantics.Event, rid dsm.RegionID, tag string, fromOff, toOff time.Duration) semantics.Triplet {
	return semantics.Triplet{Event: ev, Region: tag, RegionID: rid,
		From: t0.Add(fromOff), To: t0.Add(toOff)}
}

// observedSeqs builds training sequences that traverse
// Adidas → Hall → Nike frequently and Adidas → Hall → Cashier rarely.
func observedSeqs() []*semantics.Sequence {
	var seqs []*semantics.Sequence
	mk := func(last dsm.RegionID, lastTag string) *semantics.Sequence {
		s := semantics.NewSequence("train")
		s.Append(trip(semantics.EventStay, "rg-adidas", "Adidas", 0, 5*time.Minute))
		s.Append(trip(semantics.EventPassBy, "rg-hall", "Center Hall", 5*time.Minute+10*time.Second, 6*time.Minute))
		s.Append(trip(semantics.EventStay, last, lastTag, 6*time.Minute+10*time.Second, 12*time.Minute))
		return s
	}
	for i := 0; i < 9; i++ {
		seqs = append(seqs, mk("rg-nike", "Nike"))
	}
	seqs = append(seqs, mk("rg-cashier", "Cashier"))
	return seqs
}

func TestBuildKnowledge(t *testing.T) {
	m := testvenue.MustTwoFloor()
	k := BuildKnowledge(m, observedSeqs(), 2*time.Minute)
	if k.Observations() != 20 { // 2 transitions per sequence × 10
		t.Errorf("observations = %d, want 20", k.Observations())
	}
	// Hall→Nike observed 9×, Hall→Cashier 1×: probabilities ordered.
	pn := k.TransitionProb("rg-hall", "rg-nike")
	pc := k.TransitionProb("rg-hall", "rg-cashier")
	if pn <= pc {
		t.Errorf("P(hall→nike)=%v should exceed P(hall→cashier)=%v", pn, pc)
	}
	// Smoothing: unobserved but adjacent transitions stay positive.
	if p := k.TransitionProb("rg-nike", "rg-hall"); p <= 0 {
		t.Errorf("smoothed prob = %v", p)
	}
	// Non-adjacent regions have zero probability regardless of counts.
	if p := k.TransitionProb("rg-adidas", "rg-books"); p != 0 {
		t.Errorf("non-adjacent prob = %v", p)
	}
}

func TestKnowledgeIgnoresLongGapsAndInferred(t *testing.T) {
	m := testvenue.MustTwoFloor()
	s := semantics.NewSequence("x")
	s.Append(trip(semantics.EventStay, "rg-adidas", "Adidas", 0, 5*time.Minute))
	// 30-minute dropout: must not count as a direct transition.
	s.Append(trip(semantics.EventStay, "rg-cashier", "Cashier", 35*time.Minute, 40*time.Minute))
	// Inferred triplets must not contribute.
	inf := trip(semantics.EventPassBy, "rg-hall", "Center Hall", 40*time.Minute+10*time.Second, 41*time.Minute)
	inf.Inferred = true
	s.Append(inf)
	k := BuildKnowledge(m, []*semantics.Sequence{s}, 2*time.Minute)
	if k.Observations() != 0 {
		t.Errorf("observations = %d, want 0", k.Observations())
	}
}

func TestComplementFillsGap(t *testing.T) {
	m := testvenue.MustTwoFloor()
	k := BuildKnowledge(m, observedSeqs(), 2*time.Minute)
	c := NewComplementor(m, k)

	// Gap between Adidas and Nike: the device vanished for 10 minutes.
	// Adidas and Nike touch geometrically, but the most likely route in
	// the venue passes the hall (doors); both are acceptable topologies —
	// here we use Adidas → Cashier which must route via the hall or the
	// shop chain.
	s := semantics.NewSequence("oi")
	s.Append(trip(semantics.EventStay, "rg-adidas", "Adidas", 0, 5*time.Minute))
	s.Append(trip(semantics.EventStay, "rg-cashier", "Cashier", 15*time.Minute, 20*time.Minute))

	out, n := c.Complement(s)
	if n == 0 {
		t.Fatal("no triplets inferred")
	}
	if out.Len() != s.Len()+n {
		t.Errorf("length %d != %d + %d", out.Len(), s.Len(), n)
	}
	// Inferred triplets are flagged, lie inside the gap, and are ordered.
	for _, tr := range out.Triplets[1 : out.Len()-1] {
		if !tr.Inferred {
			t.Errorf("middle triplet not inferred: %+v", tr)
		}
		if tr.From.Before(t0.Add(5*time.Minute)) || tr.To.After(t0.Add(15*time.Minute)) {
			t.Errorf("inferred triplet outside gap: %v–%v", tr.From, tr.To)
		}
		if tr.Event != semantics.EventPassBy {
			t.Errorf("inferred event = %v", tr.Event)
		}
		if tr.Confidence <= 0 || tr.Confidence > 1 {
			t.Errorf("confidence = %v", tr.Confidence)
		}
		if tr.FirstIdx != -1 || tr.LastIdx != -1 {
			t.Error("inferred triplet should not claim record indexes")
		}
	}
	// The original triplets survive unmodified.
	if out.Triplets[0].Region != "Adidas" || out.Triplets[out.Len()-1].Region != "Cashier" {
		t.Errorf("original triplets disturbed: %v", out.Triplets)
	}
	// Fill is the per-gap step Complement loops over.
	if got := c.Fill(s.Triplets[0], s.Triplets[1]); !reflect.DeepEqual(got, out.Triplets[1:out.Len()-1]) {
		t.Errorf("Fill = %v, Complement inserted %v", got, out.Triplets[1:out.Len()-1])
	}
}

// TestFillAfterZeroLengthTriplet: a one-record triplet (To == From) gets no
// fill behind it, since the first fill would start at its From and repeat
// the device's (device, From) key; the same gap behind a triplet that lasts
// an instant longer is filled.
func TestFillAfterZeroLengthTriplet(t *testing.T) {
	m := testvenue.MustTwoFloor()
	c := NewComplementor(m, BuildKnowledge(m, observedSeqs(), 2*time.Minute))
	b := trip(semantics.EventStay, "rg-cashier", "Cashier", 15*time.Minute, 20*time.Minute)
	a := trip(semantics.EventPassBy, "rg-adidas", "Adidas", 5*time.Minute, 5*time.Minute)
	if got := c.Fill(a, b); len(got) != 0 {
		t.Errorf("Fill after a zero-length triplet = %v, want nothing", got)
	}
	a.From = a.From.Add(-time.Second)
	got := c.Fill(a, b)
	if len(got) == 0 {
		t.Fatal("Fill after a one-second triplet inserted nothing")
	}
	if !got[0].From.After(a.From) {
		t.Errorf("first fill starts at %v, not after a's From %v", got[0].From, a.From)
	}
}

func TestComplementSkipsSmallGapsAndUntagged(t *testing.T) {
	m := testvenue.MustTwoFloor()
	k := BuildKnowledge(m, observedSeqs(), 2*time.Minute)
	c := NewComplementor(m, k)

	// 1-minute gap: below threshold.
	s := semantics.NewSequence("oi")
	s.Append(trip(semantics.EventStay, "rg-adidas", "Adidas", 0, 5*time.Minute))
	s.Append(trip(semantics.EventStay, "rg-nike", "Nike", 6*time.Minute, 10*time.Minute))
	if _, n := c.Complement(s); n != 0 {
		t.Errorf("small gap complemented: %d", n)
	}

	// Untagged endpoint: skipped.
	s2 := semantics.NewSequence("oi")
	s2.Append(trip(semantics.EventStay, "", "Hall 2F", 0, 5*time.Minute))
	s2.Append(trip(semantics.EventStay, "rg-nike", "Nike", 30*time.Minute, 40*time.Minute))
	if _, n := c.Complement(s2); n != 0 {
		t.Errorf("untagged gap complemented: %d", n)
	}

	// Empty sequence passes through.
	if out, n := c.Complement(semantics.NewSequence("e")); n != 0 || out.Len() != 0 {
		t.Error("empty sequence mishandled")
	}
}

func TestComplementAdjacentRegionsInsertNothing(t *testing.T) {
	m := testvenue.MustTwoFloor()
	k := BuildKnowledge(m, observedSeqs(), 2*time.Minute)
	c := NewComplementor(m, k)
	// Adidas and Hall are adjacent: the MAP path has no interior.
	s := semantics.NewSequence("oi")
	s.Append(trip(semantics.EventStay, "rg-adidas", "Adidas", 0, 5*time.Minute))
	s.Append(trip(semantics.EventStay, "rg-hall", "Center Hall", 30*time.Minute, 40*time.Minute))
	if _, n := c.Complement(s); n != 0 {
		t.Errorf("adjacent-region gap inserted %d triplets", n)
	}
}

func TestComplementCrossFloor(t *testing.T) {
	m := testvenue.MustTwoFloor()
	k := BuildKnowledge(m, observedSeqs(), 2*time.Minute)
	c := NewComplementor(m, k)
	// Adidas (1F) to Books (2F): the path must route via regions covering
	// the staircase — but no region covers the stairs in the test venue,
	// so adjacency comes from the hall chain; verify we get a connected
	// in-between or cleanly nothing (never a wrong-floor teleport claim).
	s := semantics.NewSequence("oi")
	s.Append(trip(semantics.EventStay, "rg-adidas", "Adidas", 0, 5*time.Minute))
	s.Append(trip(semantics.EventStay, "rg-books", "Books", 30*time.Minute, 40*time.Minute))
	out, n := c.Complement(s)
	if n > 0 {
		// Any inferred region must be adjacent to its predecessor.
		for i := 1; i < out.Len(); i++ {
			a, b := out.Triplets[i-1].RegionID, out.Triplets[i].RegionID
			if a == "" || b == "" {
				continue
			}
			adj := false
			for _, x := range m.AdjacentRegions(a) {
				if x == b {
					adj = true
				}
			}
			if !adj && a != b {
				t.Errorf("inferred chain breaks adjacency: %s → %s", a, b)
			}
		}
	}
}

func TestUniformPriorAblation(t *testing.T) {
	m := testvenue.MustTwoFloor()
	k := BuildKnowledge(m, observedSeqs(), 2*time.Minute)

	learned := NewComplementor(m, k)
	uniform := NewComplementor(m, k)
	uniform.UniformPrior = true

	// The majority route in the training data is Adidas → Hall → Nike;
	// the learned prior should be more confident than uniform there.
	s := semantics.NewSequence("oi")
	s.Append(trip(semantics.EventStay, "rg-adidas", "Adidas", 0, 5*time.Minute))
	s.Append(trip(semantics.EventStay, "rg-nike", "Nike", 15*time.Minute, 20*time.Minute))

	outL, nL := learned.Complement(s)
	outU, nU := uniform.Complement(s)
	if nL == 0 || nU == 0 {
		t.Fatalf("complement counts: learned %d uniform %d", nL, nU)
	}
	confL := outL.Triplets[1].Confidence
	confU := outU.Triplets[1].Confidence
	if confL <= confU {
		t.Errorf("learned confidence %v should exceed uniform %v on the majority route", confL, confU)
	}
	// And on a rarely-taken route the learned prior is less confident than
	// on the majority route — the knowledge is actually differentiating.
	s2 := semantics.NewSequence("oi")
	s2.Append(trip(semantics.EventStay, "rg-adidas", "Adidas", 0, 5*time.Minute))
	s2.Append(trip(semantics.EventStay, "rg-cashier", "Cashier", 15*time.Minute, 20*time.Minute))
	outRare, nRare := learned.Complement(s2)
	if nRare == 0 {
		t.Fatal("rare route not complemented")
	}
	if outRare.Triplets[1].Confidence >= confL {
		t.Errorf("rare-route confidence %v should be below majority-route %v",
			outRare.Triplets[1].Confidence, confL)
	}
}

func TestMapPathSameRegion(t *testing.T) {
	m := testvenue.MustTwoFloor()
	c := NewComplementor(m, BuildKnowledge(m, nil, 0))
	path, conf := c.mapPath("rg-nike", "rg-nike")
	if len(path) != 1 || conf != 1 {
		t.Errorf("self path = %v, %v", path, conf)
	}
}

func TestMapPathHopBound(t *testing.T) {
	m := testvenue.MustTwoFloor()
	c := NewComplementor(m, BuildKnowledge(m, nil, 0))
	c.MaxHops = 1
	// Adidas→Cashier needs ≥2 hops; with MaxHops=1 it is unreachable
	// unless the two regions touch directly (they do not).
	if path, _ := c.mapPath("rg-adidas", "rg-cashier"); path != nil {
		// If a direct geometric adjacency existed the path would be the
		// two endpoints; anything longer violates the bound.
		if len(path) > 2 {
			t.Errorf("hop bound violated: %v", path)
		}
	}
}
