package simul

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"trips/internal/dsm"
	"trips/internal/position"
	"trips/internal/semantics"
)

var t0 = time.Date(2017, 1, 2, 10, 0, 0, 0, time.UTC)

func mall(t testing.TB, floors, shops int) *dsm.Model {
	t.Helper()
	m, err := BuildMall(MallSpec{Floors: floors, ShopsPerFloor: shops})
	if err != nil {
		t.Fatalf("BuildMall: %v", err)
	}
	return m
}

func TestBuildMallStructure(t *testing.T) {
	m := mall(t, 7, 8)
	if got := len(m.Floors()); got != 7 {
		t.Fatalf("floors = %d", got)
	}
	// Per floor: hall + wall + 8 shops + 8 doors + 2 stairs + 1 elevator.
	if got, want := len(m.Entities), 7*(1+1+8+8+2+1); got != want {
		t.Errorf("entities = %d, want %d", got, want)
	}
	// Regions: per floor 8 shops + 1 hall.
	if got, want := len(m.Regions), 7*9; got != want {
		t.Errorf("regions = %d, want %d", got, want)
	}
	// Paper names present on the ground floor.
	for _, tag := range []string{"Adidas", "Nike", "Cashier", "Center Hall"} {
		if m.RegionByTag(tag) == nil {
			t.Errorf("region %q missing", tag)
		}
	}
	// Full vertical connectivity: ground-floor hall to top-floor hall.
	top := dsm.FloorID(7)
	if !m.Reachable(
		dsm.Location{P: m.RegionByTag("Center Hall").Center(), Floor: 1},
		dsm.Location{P: m.RegionsOnFloor(top)[0].Center(), Floor: top},
	) {
		t.Error("mall floors not connected")
	}
}

func TestBuildMallRejectsBadSpec(t *testing.T) {
	if _, err := BuildMall(MallSpec{Floors: 0, ShopsPerFloor: 8}); err == nil {
		t.Error("zero floors accepted")
	}
	if _, err := BuildMall(MallSpec{Floors: 1, ShopsPerFloor: 0}); err == nil {
		t.Error("zero shops accepted")
	}
}

func TestShopRegionsExcludeHalls(t *testing.T) {
	m := mall(t, 2, 4)
	shops := ShopRegions(m)
	if len(shops) != 8 {
		t.Fatalf("shops = %d", len(shops))
	}
	for _, r := range shops {
		if r.Category == "hall" {
			t.Errorf("hall region %s in shop list", r.ID)
		}
	}
}

func TestRandomItinerary(t *testing.T) {
	m := mall(t, 2, 4)
	s := NewSim(m, 1)
	visits := s.RandomItinerary(5)
	if len(visits) != 5 {
		t.Fatalf("visits = %d", len(visits))
	}
	for i, v := range visits {
		if m.Region(v.Region) == nil {
			t.Errorf("visit %d region %q unknown", i, v.Region)
		}
		if v.Stay < 2*time.Minute || v.Stay > 15*time.Minute {
			t.Errorf("visit %d stay %v out of range", i, v.Stay)
		}
		if i > 0 && visits[i-1].Region == v.Region {
			t.Errorf("self-transition at %d", i)
		}
	}
	if got := s.RandomItinerary(0); got != nil {
		t.Error("zero-visit itinerary should be nil")
	}
}

func TestSimulateVisitTruth(t *testing.T) {
	m := mall(t, 2, 4)
	s := NewSim(m, 2)
	shops := ShopRegions(m)
	visits := []Visit{
		{Region: shops[0].ID, Stay: 3 * time.Minute},
		{Region: shops[2].ID, Stay: 2 * time.Minute},
	}
	truth, err := s.SimulateVisit("dev", t0, visits)
	if err != nil {
		t.Fatalf("SimulateVisit: %v", err)
	}
	if truth.Records.Empty() {
		t.Fatal("no truth records")
	}
	// The true semantics contain the two stays, in order.
	var stays []semantics.Triplet
	for _, tr := range truth.Semantics.Triplets {
		if tr.Event == semantics.EventStay {
			stays = append(stays, tr)
		}
	}
	if len(stays) != 2 {
		t.Fatalf("stays = %d (%v)", len(stays), truth.Semantics)
	}
	if stays[0].RegionID != shops[0].ID || stays[1].RegionID != shops[2].ID {
		t.Errorf("stay regions = %s, %s", stays[0].RegionID, stays[1].RegionID)
	}
	if d := stays[0].Duration(); d != 3*time.Minute {
		t.Errorf("first stay duration = %v", d)
	}
	// The walk between two shops on one floor passes the hall.
	foundHallPass := false
	for _, tr := range truth.Semantics.Triplets {
		if tr.Event == semantics.EventPassBy && tr.Region == "Center Hall" {
			foundHallPass = true
		}
	}
	if !foundHallPass {
		t.Error("no hall pass-by in truth semantics")
	}
	// Truth records move at walking speed: no consecutive jump over 3 m.
	recs := truth.Records.Records
	for i := 1; i < len(recs); i++ {
		if recs[i-1].Floor == recs[i].Floor {
			if d := recs[i-1].P.Dist(recs[i].P); d > 3 {
				t.Errorf("truth jump of %.1f m at %d", d, i)
			}
		}
	}
	// All truth records are in walkable space.
	for i, r := range recs {
		if m.Locate(r.P, r.Floor) == nil {
			t.Errorf("truth record %d at %v floor %v unwalkable", i, r.P, r.Floor)
		}
	}
}

func TestSimulateVisitCrossFloor(t *testing.T) {
	m := mall(t, 3, 4)
	s := NewSim(m, 3)
	shops := ShopRegions(m)
	var floor1, floor3 *dsm.SemanticRegion
	for _, r := range shops {
		if r.Floor == 1 && floor1 == nil {
			floor1 = r
		}
		if r.Floor == 3 && floor3 == nil {
			floor3 = r
		}
	}
	truth, err := s.SimulateVisit("dev", t0, []Visit{
		{Region: floor1.ID, Stay: 2 * time.Minute},
		{Region: floor3.ID, Stay: 2 * time.Minute},
	})
	if err != nil {
		t.Fatalf("SimulateVisit: %v", err)
	}
	floors := map[dsm.FloorID]bool{}
	for _, r := range truth.Records.Records {
		floors[r.Floor] = true
	}
	if len(floors) < 2 {
		t.Errorf("cross-floor truth visits floors %v", floors)
	}
	if truth.Records.Start().Before(t0) {
		t.Error("truth starts before itinerary start")
	}
}

func TestSimulateVisitUnknownRegion(t *testing.T) {
	m := mall(t, 1, 2)
	s := NewSim(m, 4)
	if _, err := s.SimulateVisit("dev", t0, []Visit{{Region: "nope", Stay: time.Minute}}); err == nil {
		t.Error("unknown region accepted")
	}
}

func TestObserveErrorModel(t *testing.T) {
	m := mall(t, 2, 4)
	s := NewSim(m, 5)
	shops := ShopRegions(m)
	truth, err := s.SimulateVisit("dev", t0, []Visit{
		{Region: shops[0].ID, Stay: 5 * time.Minute},
		{Region: shops[1].ID, Stay: 5 * time.Minute},
	})
	if err != nil {
		t.Fatal(err)
	}
	em := DefaultErrorModel()
	raw := s.Observe(truth, em)
	if raw.Empty() {
		t.Fatal("no raw records")
	}
	// The raw sequence is sparser than the 1 Hz truth.
	if raw.Len() >= truth.Records.Len() {
		t.Errorf("raw %d records vs truth %d", raw.Len(), truth.Records.Len())
	}
	// Period bounds respected outside dropouts.
	if mp := raw.MeanPeriod(); mp < em.MinPeriod {
		t.Errorf("mean period %v below min", mp)
	}
	// Noise present: most raw points differ from the nearest truth point.
	moved := 0
	for _, r := range raw.Records {
		tr := truthAt(truth.Records, r.At)
		if r.P.Dist(tr.P) > 0.2 {
			moved++
		}
	}
	if moved < raw.Len()/2 {
		t.Errorf("only %d/%d raw records show noise", moved, raw.Len())
	}
	// Deterministic with the same seed.
	s2 := NewSim(m, 5)
	truth2, _ := s2.SimulateVisit("dev", t0, []Visit{
		{Region: shops[0].ID, Stay: 5 * time.Minute},
		{Region: shops[1].ID, Stay: 5 * time.Minute},
	})
	raw2 := s2.Observe(truth2, em)
	if raw2.Len() != raw.Len() {
		t.Errorf("same seed, different raw lengths: %d vs %d", raw2.Len(), raw.Len())
	}
}

func TestObserveFloorErrors(t *testing.T) {
	m := mall(t, 3, 4)
	s := NewSim(m, 6)
	shops := ShopRegions(m)
	truth, err := s.SimulateVisit("dev", t0, []Visit{{Region: shops[0].ID, Stay: 20 * time.Minute}})
	if err != nil {
		t.Fatal(err)
	}
	em := ErrorModel{NoiseSigma: 0.5, FloorErrProb: 0.2, MinPeriod: 3 * time.Second, MaxPeriod: 3 * time.Second}
	raw := s.Observe(truth, em)
	wrong := 0
	for _, r := range raw.Records {
		if r.Floor != 1 {
			wrong++
			if r.Floor < 1 || r.Floor > 3 {
				t.Errorf("floor error out of venue: %v", r.Floor)
			}
		}
	}
	if wrong == 0 {
		t.Error("no floor errors injected at 20% rate")
	}
}

func TestPopulationAndTrainingSegments(t *testing.T) {
	m := mall(t, 2, 4)
	s := NewSim(m, 7)
	ds, truths, err := s.Population(5, t0, 2*time.Hour, DefaultErrorModel())
	if err != nil {
		t.Fatalf("Population: %v", err)
	}
	if ds.NumDevices() != 5 || len(truths) != 5 {
		t.Fatalf("population = %d devices, %d truths", ds.NumDevices(), len(truths))
	}
	for dev, truth := range truths {
		if ds.Sequence(dev) == nil {
			t.Errorf("device %s has truth but no raw data", dev)
		}
		if truth.Semantics.Len() == 0 {
			t.Errorf("device %s has empty true semantics", dev)
		}
	}
	segs := TrainingSegments(ds, truths, 10)
	stays := 0
	for _, es := range segs {
		if es.Event == semantics.EventStay {
			stays = len(es.Segments)
		}
		if len(es.Segments) > 10 {
			t.Errorf("%s: %d segments exceeds perEvent", es.Event, len(es.Segments))
		}
		for _, recs := range es.Segments {
			if len(recs) < 4 {
				t.Errorf("%s: undersized segment", es.Event)
			}
		}
	}
	if stays == 0 {
		t.Error("no stay training segments")
	}
}

func TestTruthAt(t *testing.T) {
	s := position.NewSequence("d")
	for i := 0; i < 10; i++ {
		s.Append(position.Record{Device: "d", P: position.Record{}.P.Add(position.Record{}.P), Floor: 1,
			At: t0.Add(time.Duration(i) * time.Second)})
	}
	r := truthAt(s, t0.Add(3500*time.Millisecond))
	if want := t0.Add(4 * time.Second); !r.At.Equal(want) && !r.At.Equal(t0.Add(3*time.Second)) {
		t.Errorf("truthAt = %v", r.At)
	}
	// Before start and after end clamp.
	if r := truthAt(s, t0.Add(-time.Hour)); !r.At.Equal(t0) {
		t.Errorf("before-start = %v", r.At)
	}
	if r := truthAt(s, t0.Add(time.Hour)); !r.At.Equal(t0.Add(9 * time.Second)) {
		t.Errorf("after-end = %v", r.At)
	}
}

// TrainingSegments draws a per-event quota from a map of device truths;
// before the selection was forced through sorted device order, which
// devices filled the quota — and the order of the returned events —
// depended on map iteration, so two runs over the same population could
// train on different segments. Regression: repeated calls must agree
// byte-for-byte, and the events must come back sorted.
func TestTrainingSegmentsDeterministic(t *testing.T) {
	m := mall(t, 2, 4)
	s := NewSim(m, 7)
	raw, truths, err := s.Population(10, t0, 2*time.Hour, DefaultErrorModel())
	if err != nil {
		t.Fatalf("Population: %v", err)
	}
	// A tight quota forces the selection to actually drop candidates, the
	// regime where the old map-order bug changed the chosen set.
	first := TrainingSegments(raw, truths, 3)
	if len(first) == 0 {
		t.Fatal("no training segments")
	}
	for i := 1; i < len(first); i++ {
		if first[i-1].Event >= first[i].Event {
			t.Fatalf("events out of order: %s before %s", first[i-1].Event, first[i].Event)
		}
	}
	a, err := json.Marshal(first)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	for run := 0; run < 5; run++ {
		b, err := json.Marshal(TrainingSegments(raw, truths, 3))
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("run %d selected different training segments", run+1)
		}
	}
}
