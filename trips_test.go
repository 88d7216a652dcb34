package trips

import (
	"strings"
	"testing"
	"time"
)

var t0 = time.Date(2017, 1, 2, 10, 0, 0, 0, time.UTC)

// newTrainedSystem builds a mall, simulates a population, trains from the
// simulator's ground truth and returns everything a test needs.
func newTrainedSystem(t testing.TB, devices int) (*System, *Dataset, map[DeviceID]Truth) {
	t.Helper()
	model, err := BuildMall(MallSpec{Floors: 2, ShopsPerFloor: 4})
	if err != nil {
		t.Fatal(err)
	}
	sim := NewSim(model, 777)
	ds, truths, err := sim.Population(devices, t0, time.Hour, DefaultErrorModel())
	if err != nil {
		t.Fatal(err)
	}
	sys := NewSystem(model)
	if sys.Trained() {
		t.Fatal("untrained system claims training")
	}
	// Designate training segments from the truth, as the Event Editor
	// walk-through does interactively.
	for dev, truth := range truths {
		seq := ds.Sequence(dev)
		for _, tr := range truth.Semantics.Triplets {
			w := seq.TimeWindow(tr.From, tr.To)
			if w.Len() < 4 {
				continue
			}
			lo, hi := indexRange(seq, tr.From, tr.To)
			_ = sys.Editor().Designate(tr.Event, seq, lo, hi) // duration hints may reject; fine
		}
	}
	if err := sys.Train(""); err != nil {
		t.Fatalf("Train: %v", err)
	}
	return sys, ds, truths
}

func indexRange(seq *Sequence, from, to time.Time) (int, int) {
	lo, hi := -1, -1
	for i, r := range seq.Records {
		if !r.At.Before(from) && r.At.Before(to) {
			if lo < 0 {
				lo = i
			}
			hi = i + 1
		}
	}
	if lo < 0 {
		return 0, 0
	}
	return lo, hi
}

func TestSystemWalkthrough(t *testing.T) {
	sys, ds, truths := newTrainedSystem(t, 5)
	results, err := sys.Translate(ds)
	if err != nil {
		t.Fatalf("Translate: %v", err)
	}
	if len(results) != 5 {
		t.Fatalf("results = %d", len(results))
	}
	r := results[0]
	if r.Final.Len() == 0 {
		t.Fatal("no mobility semantics produced")
	}
	// Table-1 shaped output.
	text := r.Final.String()
	if !strings.Contains(text, string(r.Device)) || !strings.Contains(text, "(") {
		t.Errorf("semantics text = %q", text)
	}
	// Viewer integration.
	truth := truths[r.Device]
	v := sys.NewView(r, &truth)
	svg := RenderMapSVG(v)
	if !strings.Contains(svg, "<svg") {
		t.Error("map SVG malformed")
	}
	tl := RenderTimelineSVG(v)
	if !strings.Contains(tl, "<svg") {
		t.Error("timeline SVG malformed")
	}
	// Assessment against ground truth.
	rep := Compare(r.Final, truth.Semantics)
	if rep.TimeAgreement <= 0 {
		t.Errorf("no agreement with truth: %+v", rep)
	}
}

func TestTranslateBeforeTrainFails(t *testing.T) {
	model, err := BuildMall(MallSpec{Floors: 1, ShopsPerFloor: 2})
	if err != nil {
		t.Fatal(err)
	}
	sys := NewSystem(model)
	if _, err := sys.Translate(NewDataset()); err == nil {
		t.Error("Translate before Train accepted")
	}
	if _, err := sys.TranslateSequence(&Sequence{}); err == nil {
		t.Error("TranslateSequence before Train accepted")
	}
	if _, err := sys.NewOnline(OnlineConfig{Emitter: OnlineEmitterFunc(func(OnlineResult) {})}); err == nil {
		t.Error("NewOnline before Train accepted")
	}
}

func TestTranslateSequence(t *testing.T) {
	sys, ds, _ := newTrainedSystem(t, 3)
	dev := ds.Devices()[0]
	res, err := sys.TranslateSequence(ds.Sequence(dev))
	if err != nil {
		t.Fatal(err)
	}
	if res.Device != dev || res.Final == nil {
		t.Errorf("result = %+v", res)
	}
}

func TestDrawAndTranslateOnDrawnVenue(t *testing.T) {
	// End-to-end over a hand-drawn venue instead of the generator.
	c := NewCanvas(1)
	if _, err := c.DrawRect("hallway", "hall", Pt(0, 0), Pt(30, 8)); err != nil {
		t.Fatal(err)
	}
	s1, _ := c.DrawRect("room", "shop-a", Pt(0, 8.4), Pt(15, 16))
	s2, _ := c.DrawRect("room", "shop-b", Pt(15, 8.4), Pt(30, 16))
	c.DrawRect("wall", "wall", Pt(0, 8), Pt(30, 8.4))
	c.DrawRect("door", "da", Pt(6, 8), Pt(8, 8.4))
	c.DrawRect("door", "db", Pt(21, 8), Pt(23, 8.4))
	if err := c.AssignTag(s1, "Adidas", "shop"); err != nil {
		t.Fatal(err)
	}
	if err := c.AssignTag(s2, "Nike", "shop"); err != nil {
		t.Fatal(err)
	}
	model, err := BuildDSM("drawn", c)
	if err != nil {
		t.Fatalf("BuildDSM: %v", err)
	}
	if model.RegionByTag("Adidas") == nil {
		t.Fatal("drawn region missing")
	}
	// Simulate on the drawn venue: the drawn DSM drives the agent.
	sim := NewSim(model, 9)
	truth, err := sim.SimulateVisit("dev", t0, []Visit{
		{Region: model.RegionByTag("Adidas").ID, Stay: 5 * time.Minute},
		{Region: model.RegionByTag("Nike").ID, Stay: 5 * time.Minute},
	})
	if err != nil {
		t.Fatalf("SimulateVisit on drawn venue: %v", err)
	}
	if truth.Records.Empty() || truth.Semantics.Len() < 2 {
		t.Errorf("drawn-venue truth = %d records, %d triplets",
			truth.Records.Len(), truth.Semantics.Len())
	}
}
