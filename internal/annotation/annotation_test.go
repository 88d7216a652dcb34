package annotation

import (
	"math"
	"testing"
	"time"

	"trips/internal/dsm"
	"trips/internal/events"
	"trips/internal/geom"
	"trips/internal/position"
	"trips/internal/semantics"
	"trips/internal/testvenue"
)

var t0 = time.Date(2017, 1, 2, 10, 0, 0, 0, time.UTC)

// lcg is a tiny deterministic generator for test jitter.
type lcg uint64

func (g *lcg) next() float64 {
	*g = *g*6364136223846793005 + 1442695040888963407
	return float64(*g>>11) / float64(1<<53)
}

// stayRecords emits n records jittered around center (dwelling).
func stayRecords(g *lcg, center geom.Point, floor dsm.FloorID, start time.Time, n int, period time.Duration) []position.Record {
	out := make([]position.Record, 0, n)
	for i := 0; i < n; i++ {
		p := geom.Pt(center.X+(g.next()-0.5)*2, center.Y+(g.next()-0.5)*2)
		out = append(out, position.Record{Device: "d", P: p, Floor: floor,
			At: start.Add(time.Duration(i) * period)})
	}
	return out
}

// walkRecords emits records moving from a to b at ~1.4 m/s.
func walkRecords(g *lcg, a, b geom.Point, floor dsm.FloorID, start time.Time, period time.Duration) []position.Record {
	dist := a.Dist(b)
	steps := int(dist/(1.4*period.Seconds())) + 1
	out := make([]position.Record, 0, steps+1)
	for i := 0; i <= steps; i++ {
		t := float64(i) / float64(steps)
		p := a.Lerp(b, t)
		p = geom.Pt(p.X+(g.next()-0.5)*0.8, p.Y+(g.next()-0.5)*0.8)
		out = append(out, position.Record{Device: "d", P: p, Floor: floor,
			At: start.Add(time.Duration(i) * period)})
	}
	return out
}

func seqFrom(recs ...[]position.Record) *position.Sequence {
	s := position.NewSequence("d")
	for _, rs := range recs {
		for _, r := range rs {
			s.Append(r)
		}
	}
	return s
}

// trainingSet builds a balanced stay/pass-by training set from synthetic
// segments in the test venue.
func trainingSet(t testing.TB) events.TrainingSet {
	t.Helper()
	g := lcg(42)
	ed := events.NewEditor()
	base := t0
	for i := 0; i < 8; i++ {
		stay := stayRecords(&g, geom.Pt(5, 15), 1, base, 40, 5*time.Second)
		if err := ed.AddSegment(events.LabeledSegment{Event: semantics.EventStay, Device: "tr", Records: stay}); err != nil {
			t.Fatal(err)
		}
		pass := walkRecords(&g, geom.Pt(2, 5), geom.Pt(30, 5), 1, base, 5*time.Second)
		if err := ed.AddSegment(events.LabeledSegment{Event: semantics.EventPassBy, Device: "tr", Records: pass}); err != nil {
			t.Fatal(err)
		}
		base = base.Add(time.Hour)
	}
	return ed.TrainingSet()
}

func TestSplitStayMovePattern(t *testing.T) {
	g := lcg(7)
	// stay 3 min → walk ≈20 s → stay 3 min.
	s := seqFrom(
		stayRecords(&g, geom.Pt(5, 15), 1, t0, 36, 5*time.Second),
		walkRecords(&g, geom.Pt(5, 15), geom.Pt(25, 15), 1, t0.Add(3*time.Minute+5*time.Second), 5*time.Second),
		stayRecords(&g, geom.Pt(25, 15), 1, t0.Add(4*time.Minute), 36, 5*time.Second),
	)
	sns := Split(s, DefaultSplitConfig())
	if len(sns) < 2 || len(sns) > 5 {
		t.Fatalf("snippets = %d, want 2–5", len(sns))
	}
	// Coverage: snippets tile the sequence exactly.
	idx := 0
	for _, sn := range sns {
		if sn.First != idx {
			t.Fatalf("snippet starts at %d, want %d", sn.First, idx)
		}
		idx = sn.Last + 1
	}
	if idx != s.Len() {
		t.Fatalf("snippets cover %d of %d records", idx, s.Len())
	}
	// First and last snippets are dense (stays).
	if !sns[0].Dense || !sns[len(sns)-1].Dense {
		t.Errorf("stay snippets not dense: first=%v last=%v", sns[0].Dense, sns[len(sns)-1].Dense)
	}
}

func TestSplitCutsOnFloorChange(t *testing.T) {
	g := lcg(9)
	s := seqFrom(
		stayRecords(&g, geom.Pt(37, 2), 1, t0, 20, 5*time.Second),
		stayRecords(&g, geom.Pt(37, 2), 2, t0.Add(2*time.Minute), 20, 5*time.Second),
	)
	sns := Split(s, DefaultSplitConfig())
	for _, sn := range sns {
		f := sn.Records[0].Floor
		for _, r := range sn.Records {
			if r.Floor != f {
				t.Fatal("snippet spans a floor change")
			}
		}
	}
}

func TestSplitCutsOnTimeGap(t *testing.T) {
	g := lcg(11)
	s := seqFrom(
		stayRecords(&g, geom.Pt(5, 15), 1, t0, 20, 5*time.Second),
		stayRecords(&g, geom.Pt(5, 15), 1, t0.Add(30*time.Minute), 20, 5*time.Second),
	)
	sns := Split(s, DefaultSplitConfig())
	if len(sns) < 2 {
		t.Fatalf("gap not cut: %d snippets", len(sns))
	}
}

func TestSplitEmptyAndSingle(t *testing.T) {
	if sns := Split(position.NewSequence("d"), DefaultSplitConfig()); sns != nil {
		t.Error("empty split should be nil")
	}
	s := position.NewSequence("d")
	s.Append(position.Record{Device: "d", P: geom.Pt(1, 1), Floor: 1, At: t0})
	sns := Split(s, DefaultSplitConfig())
	if len(sns) != 1 || sns[0].First != 0 || sns[0].Last != 0 {
		t.Errorf("single-record split = %+v", sns)
	}
}

func TestFeaturizeSeparatesStayFromWalk(t *testing.T) {
	g := lcg(5)
	stay := FeaturizeRecords(stayRecords(&g, geom.Pt(5, 15), 1, t0, 40, 5*time.Second), true)
	walk := FeaturizeRecords(walkRecords(&g, geom.Pt(2, 5), geom.Pt(30, 5), 1, t0, 5*time.Second), false)
	// Stay: small covering range, low mean speed. Walk: opposite.
	if stay[7] >= walk[7] {
		t.Errorf("covering range: stay %v !< walk %v", stay[7], walk[7])
	}
	if stay[5] >= walk[5] {
		t.Errorf("mean speed: stay %v !< walk %v", stay[5], walk[5])
	}
	if walk[10] <= stay[10] {
		t.Errorf("straightness: walk %v !> stay %v", walk[10], stay[10])
	}
	if len(stay) != NumFeatures || len(FeatureNames) != NumFeatures {
		t.Error("feature arity mismatch")
	}
	// Empty input gives a zero vector, not a panic.
	zero := FeaturizeRecords(nil, false)
	for _, v := range zero {
		if v != 0 {
			t.Error("empty featurize not zero")
		}
	}
}

func TestScaler(t *testing.T) {
	X := [][]float64{{1, 10, 5}, {3, 10, 7}, {5, 10, 9}}
	sc := FitScaler(X)
	Z := sc.TransformAll(X)
	// Column 0: mean 3, std sqrt(8/3).
	if math.Abs(Z[0][0]+Z[2][0]) > 1e-9 || Z[1][0] != 0 {
		t.Errorf("standardization wrong: %v", Z)
	}
	// Constant column maps to zero.
	for i := range Z {
		if Z[i][1] != 0 {
			t.Errorf("constant column scaled: %v", Z[i][1])
		}
	}
	// Empty scaler copies input.
	empty := FitScaler(nil)
	x := []float64{1, 2}
	got := empty.Transform(x)
	if got[0] != 1 || got[1] != 2 {
		t.Errorf("empty scaler transform = %v", got)
	}
	got[0] = 99
	if x[0] == 99 {
		t.Error("empty scaler aliases input")
	}
}

// xorishData builds a small linearly separable dataset.
func separableData() ([][]float64, []int) {
	var X [][]float64
	var y []int
	for i := 0; i < 20; i++ {
		f := float64(i)
		X = append(X, []float64{f * 0.1, 1 - f*0.1})
		if i < 10 {
			y = append(y, 0)
		} else {
			y = append(y, 1)
		}
	}
	return X, y
}

func TestClassifiersOnSeparableData(t *testing.T) {
	X, y := separableData()
	for _, mk := range []func() Classifier{
		func() Classifier { return NewGaussianNB() },
		func() Classifier { return NewLogisticRegression() },
		func() Classifier { return NewDecisionTree() },
	} {
		c := mk()
		if err := c.Train(X, y); err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		correct := 0
		for i, x := range X {
			got, probs := c.Predict(x)
			if got == y[i] {
				correct++
			}
			var sum float64
			for _, p := range probs {
				if p < -1e-9 || p > 1+1e-9 {
					t.Errorf("%s: probability %v out of range", c.Name(), p)
				}
				sum += p
			}
			if math.Abs(sum-1) > 1e-6 {
				t.Errorf("%s: probabilities sum to %v", c.Name(), sum)
			}
		}
		if correct < 18 {
			t.Errorf("%s: %d/20 correct on separable data", c.Name(), correct)
		}
	}
}

func TestClassifierValidation(t *testing.T) {
	for _, c := range []Classifier{NewGaussianNB(), NewLogisticRegression(), NewDecisionTree()} {
		if err := c.Train(nil, nil); err == nil {
			t.Errorf("%s: empty training accepted", c.Name())
		}
		if err := c.Train([][]float64{{1}, {2}}, []int{0, 0}); err == nil {
			t.Errorf("%s: single class accepted", c.Name())
		}
		if err := c.Train([][]float64{{1}, {2, 3}}, []int{0, 1}); err == nil {
			t.Errorf("%s: ragged rows accepted", c.Name())
		}
		if err := c.Train([][]float64{{1}, {2}}, []int{0, -1}); err == nil {
			t.Errorf("%s: negative label accepted", c.Name())
		}
	}
}

func TestThreeClassClassification(t *testing.T) {
	// Three well-separated Gaussian blobs.
	g := lcg(13)
	var X [][]float64
	var y []int
	centers := [][2]float64{{0, 0}, {10, 0}, {0, 10}}
	for c, ctr := range centers {
		for i := 0; i < 15; i++ {
			X = append(X, []float64{ctr[0] + g.next(), ctr[1] + g.next()})
			y = append(y, c)
		}
	}
	for _, c := range []Classifier{NewGaussianNB(), NewLogisticRegression(), NewDecisionTree()} {
		if err := c.Train(X, y); err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		if got, _ := c.Predict([]float64{10.5, 0.5}); got != 1 {
			t.Errorf("%s: blob 1 predicted %d", c.Name(), got)
		}
		if got, _ := c.Predict([]float64{0.5, 10.5}); got != 2 {
			t.Errorf("%s: blob 2 predicted %d", c.Name(), got)
		}
	}
}

func TestCrossValidate(t *testing.T) {
	X, y := separableData()
	acc, err := CrossValidate(func() Classifier { return NewGaussianNB() }, X, y, 5)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.8 {
		t.Errorf("cv accuracy = %v", acc)
	}
	if _, err := CrossValidate(func() Classifier { return NewGaussianNB() }, X, y, 1); err == nil {
		t.Error("folds=1 accepted")
	}
}

func TestTrainEventModel(t *testing.T) {
	ts := trainingSet(t)
	em, err := TrainEventModel(ts, NewGaussianNB(), DefaultSplitConfig())
	if err != nil {
		t.Fatalf("TrainEventModel: %v", err)
	}
	if em.clf.Name() != "gaussian-nb" {
		t.Errorf("model name = %q", em.clf.Name())
	}
	evs := em.labels
	if len(evs) != 2 || evs[0] != semantics.EventPassBy || evs[1] != semantics.EventStay {
		t.Errorf("events = %v", evs)
	}
	// Identification on fresh segments.
	g := lcg(99)
	staySn := Snippet{Records: stayRecords(&g, geom.Pt(15, 15), 1, t0, 40, 5*time.Second), Dense: true}
	ev, conf := em.Identify(staySn)
	if ev != semantics.EventStay {
		t.Errorf("stay identified as %s (conf %v)", ev, conf)
	}
	passSn := Snippet{Records: walkRecords(&g, geom.Pt(2, 5), geom.Pt(30, 5), 1, t0, 5*time.Second)}
	ev, conf = em.Identify(passSn)
	if ev != semantics.EventPassBy {
		t.Errorf("pass-by identified as %s (conf %v)", ev, conf)
	}

	// Single-event training set fails.
	one := events.TrainingSet{Segments: ts.Segments[:1]}
	if _, err := TrainEventModel(one, NewGaussianNB(), DefaultSplitConfig()); err == nil {
		t.Error("single-event training set accepted")
	}
	if _, err := TrainEventModel(events.TrainingSet{}, NewGaussianNB(), DefaultSplitConfig()); err == nil {
		t.Error("empty training set accepted")
	}
}

func TestAnnotateEndToEnd(t *testing.T) {
	m := testvenue.MustTwoFloor()
	em, err := TrainEventModel(trainingSet(t), NewGaussianNB(), DefaultSplitConfig())
	if err != nil {
		t.Fatal(err)
	}
	a := NewAnnotator(m, em, DefaultConfig())

	// Shopper: stays in Adidas, walks the hall, stays in Cashier.
	g := lcg(21)
	s := seqFrom(
		stayRecords(&g, geom.Pt(5, 15), 1, t0, 60, 5*time.Second), // Adidas 5 min
		walkRecords(&g, geom.Pt(5, 11), geom.Pt(25, 11), 1, t0.Add(5*time.Minute+5*time.Second), 5*time.Second),
		stayRecords(&g, geom.Pt(25, 15), 1, t0.Add(7*time.Minute), 60, 5*time.Second), // Cashier 5 min
	)
	sem := a.Annotate(s)
	if sem.Len() < 2 {
		t.Fatalf("semantics = %v", sem)
	}
	first, last := sem.Triplets[0], sem.Triplets[sem.Len()-1]
	if first.Region != "Adidas" || first.Event != semantics.EventStay {
		t.Errorf("first triplet = %v", first)
	}
	if last.Region != "Cashier" || last.Event != semantics.EventStay {
		t.Errorf("last triplet = %v", last)
	}
	// Index linkage back to records is consistent.
	for _, tr := range sem.Triplets {
		if tr.FirstIdx < 0 || tr.LastIdx >= s.Len() || tr.FirstIdx > tr.LastIdx {
			t.Errorf("bad index linkage: %+v", tr)
		}
		if tr.Confidence < 0 || tr.Confidence > 1 {
			t.Errorf("confidence out of range: %v", tr.Confidence)
		}
	}
}

func TestAnnotateDisplayPolicies(t *testing.T) {
	m := testvenue.MustTwoFloor()
	em, err := TrainEventModel(trainingSet(t), NewGaussianNB(), DefaultSplitConfig())
	if err != nil {
		t.Fatal(err)
	}
	g := lcg(31)
	s := seqFrom(stayRecords(&g, geom.Pt(15, 15), 1, t0, 40, 5*time.Second))

	cfgMid := DefaultConfig()
	aMid := NewAnnotator(m, em, cfgMid)
	semMid := aMid.Annotate(s)

	cfgCen := DefaultConfig()
	cfgCen.Display = DisplaySpatialCentral
	aCen := NewAnnotator(m, em, cfgCen)
	semCen := aCen.Annotate(s)

	if semMid.Len() == 0 || semCen.Len() == 0 {
		t.Fatal("no triplets")
	}
	// Both display points must be actual record locations.
	for _, sem := range []*semantics.Sequence{semMid, semCen} {
		for _, tr := range sem.Triplets {
			found := false
			for _, r := range s.Records {
				if r.P.Eq(tr.Display) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("display point %v is not a record location", tr.Display)
			}
		}
	}
}

func TestAnnotateMinConfidence(t *testing.T) {
	m := testvenue.MustTwoFloor()
	em, err := TrainEventModel(trainingSet(t), NewGaussianNB(), DefaultSplitConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.MinConfidence = 1.01 // nothing passes
	a := NewAnnotator(m, em, cfg)
	g := lcg(41)
	s := seqFrom(stayRecords(&g, geom.Pt(15, 15), 1, t0, 40, 5*time.Second))
	sem := a.Annotate(s)
	for _, tr := range sem.Triplets {
		if tr.Event != semantics.EventUnknown {
			t.Errorf("event %s above impossible threshold", tr.Event)
		}
	}
}

func TestMatchRegionFallback(t *testing.T) {
	m := testvenue.MustTwoFloor()
	em, err := TrainEventModel(trainingSet(t), NewGaussianNB(), DefaultSplitConfig())
	if err != nil {
		t.Fatal(err)
	}
	a := NewAnnotator(m, em, DefaultConfig())
	// Records on floor 2 hallway: H2 has no semantic region, so the
	// annotation falls back to the partition name.
	g := lcg(51)
	s := seqFrom(stayRecords(&g, geom.Pt(20, 5), 2, t0, 40, 5*time.Second))
	sem := a.Annotate(s)
	if sem.Len() == 0 {
		t.Fatal("no triplets")
	}
	if sem.Triplets[0].Region != "Hall 2F" {
		t.Errorf("fallback region = %q, want partition name", sem.Triplets[0].Region)
	}
	if sem.Triplets[0].RegionID != "" {
		t.Error("fallback should not claim a region ID")
	}
}
