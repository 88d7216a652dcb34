package simul

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"trips/internal/dsm"
	"trips/internal/geom"
	"trips/internal/position"
	"trips/internal/semantics"
)

// Visit is one itinerary leg: dwell in a region for a duration.
type Visit struct {
	Region dsm.RegionID
	Stay   time.Duration
}

// Truth is a simulated device's ground truth: the dense true trajectory and
// the true mobility semantics — the "ground truth positioning sequence" the
// paper's Viewer renders for assessment.
type Truth struct {
	Records   *position.Sequence
	Semantics *semantics.Sequence
}

// Sim simulates shoppers over a frozen venue model.
type Sim struct {
	Model *dsm.Model
	rng   *rand.Rand

	// WalkSpeed is the agent speed in m/s (default 1.3).
	WalkSpeed float64
	// TruthPeriod is the sampling period of the ground-truth trace
	// (default 1 s).
	TruthPeriod time.Duration
	// MinStayForTruth is the dwell threshold distinguishing stay from
	// pass-by in the true semantics (default 90 s).
	MinStayForTruth time.Duration
}

// NewSim creates a simulator with the given deterministic seed.
func NewSim(m *dsm.Model, seed int64) *Sim {
	return &Sim{
		Model:           m,
		rng:             rand.New(rand.NewSource(seed)),
		WalkSpeed:       1.3,
		TruthPeriod:     time.Second,
		MinStayForTruth: 90 * time.Second,
	}
}

// RandomItinerary draws n visits over the shop regions with Zipf-like
// popularity (earlier shops are more popular, making the learned mobility
// knowledge informative) and dwell times between 2 and 15 minutes.
func (s *Sim) RandomItinerary(n int) []Visit {
	shops := ShopRegions(s.Model)
	if len(shops) == 0 || n <= 0 {
		return nil
	}
	// Zipf weights 1/(rank+1).
	weights := make([]float64, len(shops))
	var total float64
	for i := range shops {
		weights[i] = 1 / float64(i+2)
		total += weights[i]
	}
	visits := make([]Visit, 0, n)
	last := -1
	for len(visits) < n {
		x := s.rng.Float64() * total
		idx := 0
		for i, w := range weights {
			if x < w {
				idx = i
				break
			}
			x -= w
		}
		if idx == last {
			continue // no self-transitions
		}
		last = idx
		stay := 2*time.Minute + time.Duration(s.rng.Float64()*13*float64(time.Minute))
		visits = append(visits, Visit{Region: shops[idx].ID, Stay: stay})
	}
	return visits
}

// SimulateVisit produces a device's ground truth for an itinerary starting
// at the given time: the agent spawns at the first region, dwells, walks
// the DSM shortest path to the next region at WalkSpeed, and so on.
func (s *Sim) SimulateVisit(dev position.DeviceID, start time.Time, visits []Visit) (Truth, error) {
	truth := Truth{
		Records:   position.NewSequence(dev),
		Semantics: semantics.NewSequence(string(dev)),
	}
	if len(visits) == 0 {
		return truth, nil
	}
	now := start
	var nextAnchor *geom.Point // set by the preceding walk's arrival point
	for i, v := range visits {
		reg := s.Model.Region(v.Region)
		if reg == nil {
			return truth, fmt.Errorf("simul: unknown region %q", v.Region)
		}
		anchor := s.dwellPoint(reg)
		if nextAnchor != nil {
			anchor = *nextAnchor
		}
		// Dwell: a slow bounded random walk around the anchor — a browsing
		// shopper drifts, but never teleports.
		dwellEnd := now.Add(v.Stay)
		cur := anchor
		for t := now; t.Before(dwellEnd); t = t.Add(s.TruthPeriod) {
			truth.Records.Append(position.Record{Device: dev, P: cur, Floor: reg.Floor, At: t})
			next := s.jitterInside(reg, cur, 0.3)
			if next.Dist(anchor) > 3 {
				next = cur.Lerp(anchor, 0.3) // drift back toward the anchor
			}
			cur = next
		}
		truth.Semantics.Append(semantics.Triplet{
			Event: semantics.EventStay, Region: reg.Tag, RegionID: reg.ID,
			From: now, To: dwellEnd,
			Display: anchor, Floor: reg.Floor, Confidence: 1,
			FirstIdx: -1, LastIdx: -1,
		})
		now = dwellEnd

		// Walk to the next region; the arrival point anchors the next dwell.
		if i+1 < len(visits) {
			next := s.Model.Region(visits[i+1].Region)
			if next == nil {
				return truth, fmt.Errorf("simul: unknown region %q", visits[i+1].Region)
			}
			var arrived geom.Point
			var err error
			now, arrived, err = s.walk(&truth, dev, cur, reg, next, now)
			if err != nil {
				return truth, err
			}
			nextAnchor = &arrived
		}
	}
	return truth, nil
}

// dwellPoint picks a stable point inside the region to dwell around,
// preferring points with clearance from the region boundary — shoppers
// browse the interior, and anchors hugging a wall would not be where a
// person stands.
func (s *Sim) dwellPoint(reg *dsm.SemanticRegion) geom.Point {
	b := reg.Shape.Bounds()
	clearance := 2.0
	if m := math.Min(b.Width(), b.Height()) / 4; m < clearance {
		clearance = m
	}
	for tries := 0; tries < 48; tries++ {
		p := geom.Pt(
			b.Min.X+s.rng.Float64()*b.Width(),
			b.Min.Y+s.rng.Float64()*b.Height(),
		)
		if !reg.Shape.Contains(p) || s.Model.Locate(p, reg.Floor) == nil {
			continue
		}
		if tries < 32 && p.Dist(reg.Shape.ClosestBoundaryPoint(p)) < clearance {
			continue // first pass insists on interior clearance
		}
		return p
	}
	return reg.Center()
}

// jitterInside returns anchor plus bounded Gaussian jitter, kept inside the
// region.
func (s *Sim) jitterInside(reg *dsm.SemanticRegion, anchor geom.Point, sigma float64) geom.Point {
	for tries := 0; tries < 8; tries++ {
		p := geom.Pt(anchor.X+s.rng.NormFloat64()*sigma, anchor.Y+s.rng.NormFloat64()*sigma)
		if reg.Shape.Contains(p) {
			return p
		}
	}
	return anchor
}

// walk moves the agent from `from` in region a to a dwell point in region b
// along the DSM walking path, appending truth records and pass-by semantics
// for regions traversed on the way. It returns the arrival time and point.
func (s *Sim) walk(truth *Truth, dev position.DeviceID, from geom.Point, a, b *dsm.SemanticRegion, now time.Time) (time.Time, geom.Point, error) {
	target := s.dwellPoint(b)
	path := s.Model.WalkingPath(
		dsm.Location{P: from, Floor: a.Floor},
		dsm.Location{P: target, Floor: b.Floor},
	)
	if path == nil {
		return now, from, fmt.Errorf("simul: no path %s → %s", a.ID, b.ID)
	}
	// Sample the path at WalkSpeed every TruthPeriod.
	type sample struct {
		p geom.Point
		f dsm.FloorID
	}
	var samples []sample
	for leg := 1; leg < len(path); leg++ {
		p0, p1 := path[leg-1], path[leg]
		planar := p0.P.Dist(p1.P)
		legLen := planar
		if p0.Floor != p1.Floor {
			// Vertical leg: time is priced by the shaft length.
			legLen = s.Model.FloorHeight * 3 * math.Abs(float64(p1.Floor-p0.Floor))
		}
		steps := int(legLen/(s.WalkSpeed*s.TruthPeriod.Seconds())) + 1
		for i := 1; i <= steps; i++ {
			t := float64(i) / float64(steps)
			f := p0.Floor
			if t > 0.5 {
				f = p1.Floor
			}
			p := p0.P.Lerp(p1.P, t)
			// Path legs connect door centers, which sit inside wall bands;
			// a real walker swings into the adjoining partition. Snap.
			if sp, _, ok := s.Model.SnapToWalkable(p, f); ok {
				p = sp
			}
			samples = append(samples, sample{p, f})
		}
	}
	// Emit records and track region traversal for true pass-by semantics.
	var curRegion *dsm.SemanticRegion
	var curStart time.Time
	flush := func(end time.Time) {
		if curRegion == nil {
			return
		}
		// Only regions distinct from the endpoints are pass-bys.
		if curRegion.ID != a.ID && curRegion.ID != b.ID && end.Sub(curStart) >= 2*s.TruthPeriod {
			truth.Semantics.Append(semantics.Triplet{
				Event: semantics.EventPassBy, Region: curRegion.Tag, RegionID: curRegion.ID,
				From: curStart, To: end,
				Display: curRegion.Center(), Floor: curRegion.Floor, Confidence: 1,
				FirstIdx: -1, LastIdx: -1,
			})
		}
		curRegion = nil
	}
	arrived := target
	for _, sp := range samples {
		now = now.Add(s.TruthPeriod)
		truth.Records.Append(position.Record{Device: dev, P: sp.p, Floor: sp.f, At: now})
		arrived = sp.p
		reg := s.Model.RegionAt(sp.p, sp.f)
		switch {
		case reg == nil:
			flush(now)
		case curRegion == nil || reg.ID != curRegion.ID:
			flush(now)
			curRegion, curStart = reg, now
		}
	}
	flush(now)
	return now, arrived, nil
}

// ErrorModel degrades ground truth into raw positioning records with Wi-Fi
// error characteristics. All rates are per-record unless stated.
type ErrorModel struct {
	// NoiseSigma is the planar Gaussian noise in meters (default 2.5).
	NoiseSigma float64
	// OutlierProb replaces a record with a uniform point on the floor.
	OutlierProb float64
	// FloorErrProb shifts a record's floor by ±1 (clamped to the venue).
	FloorErrProb float64
	// MinPeriod and MaxPeriod bound the jittered sampling period.
	MinPeriod, MaxPeriod time.Duration
	// DropoutProb is the chance, evaluated once per emitted record, of
	// entering a dropout lasting DropoutMin..DropoutMax.
	DropoutProb            float64
	DropoutMin, DropoutMax time.Duration
}

// DefaultErrorModel is the error model the experiments (E4a's sweep
// baseline) and the generated corpora default to.
func DefaultErrorModel() ErrorModel {
	return ErrorModel{
		NoiseSigma:   2.5,
		OutlierProb:  0.05,
		FloorErrProb: 0.03,
		MinPeriod:    3 * time.Second,
		MaxPeriod:    10 * time.Second,
		DropoutProb:  0.006,
		DropoutMin:   time.Minute,
		DropoutMax:   6 * time.Minute,
	}
}

// Observe samples the truth through the error model, producing the raw
// positioning sequence a Wi-Fi system would report.
func (s *Sim) Observe(truth Truth, em ErrorModel) *position.Sequence {
	raw := position.NewSequence(truth.Records.Device)
	if truth.Records.Empty() {
		return raw
	}
	if em.MinPeriod <= 0 {
		em.MinPeriod = 3 * time.Second
	}
	if em.MaxPeriod < em.MinPeriod {
		em.MaxPeriod = em.MinPeriod
	}
	floors := s.Model.Floors()
	start, end := truth.Records.Start(), truth.Records.End()
	for t := start; !t.After(end); {
		// Dropout?
		if em.DropoutProb > 0 && s.rng.Float64() < em.DropoutProb {
			d := em.DropoutMin + time.Duration(s.rng.Float64()*float64(em.DropoutMax-em.DropoutMin))
			t = t.Add(d)
			continue
		}
		tr := truthAt(truth.Records, t)
		r := position.Record{Device: raw.Device, At: t, Floor: tr.Floor}
		switch {
		case em.OutlierProb > 0 && s.rng.Float64() < em.OutlierProb:
			b := s.Model.FloorBounds(tr.Floor)
			r.P = geom.Pt(b.Min.X+s.rng.Float64()*b.Width(), b.Min.Y+s.rng.Float64()*b.Height())
		default:
			r.P = geom.Pt(tr.P.X+s.rng.NormFloat64()*em.NoiseSigma, tr.P.Y+s.rng.NormFloat64()*em.NoiseSigma)
		}
		if em.FloorErrProb > 0 && s.rng.Float64() < em.FloorErrProb && len(floors) > 1 {
			shift := dsm.FloorID(1)
			if s.rng.Float64() < 0.5 {
				shift = -1
			}
			nf := r.Floor + shift
			if nf < floors[0] {
				nf = r.Floor + 1
			}
			if nf > floors[len(floors)-1] {
				nf = r.Floor - 1
			}
			r.Floor = nf
		}
		raw.Append(r)
		period := em.MinPeriod + time.Duration(s.rng.Float64()*float64(em.MaxPeriod-em.MinPeriod))
		t = t.Add(period)
	}
	return raw
}

// truthAt returns the truth record nearest in time to t (binary search over
// the 1 Hz trace).
func truthAt(s *position.Sequence, t time.Time) position.Record {
	recs := s.Records
	lo, hi := 0, len(recs)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if recs[mid].At.Before(t) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo > 0 && t.Sub(recs[lo-1].At) < recs[lo].At.Sub(t) {
		return recs[lo-1]
	}
	return recs[lo]
}

// Population generates a full synthetic dataset: count devices, each with a
// random itinerary of 3–6 visits starting at a random moment within the
// window. It returns the raw dataset and the per-device truth.
func (s *Sim) Population(count int, windowStart time.Time, window time.Duration, em ErrorModel) (*position.Dataset, map[position.DeviceID]Truth, error) {
	ds := position.NewDataset()
	truths := make(map[position.DeviceID]Truth, count)
	for i := 0; i < count; i++ {
		dev := position.DeviceID(fmt.Sprintf("3a.%02x.%02d", s.rng.Intn(256), i))
		start := windowStart.Add(time.Duration(s.rng.Float64() * float64(window)))
		visits := s.RandomItinerary(3 + s.rng.Intn(4))
		truth, err := s.SimulateVisit(dev, start, visits)
		if err != nil {
			return nil, nil, err
		}
		truths[dev] = truth
		ds.AddSequence(s.Observe(truth, em))
	}
	return ds, truths, nil
}

// EventSegments groups one event's labeled training segments.
type EventSegments struct {
	Event    semantics.Event
	Segments [][]position.Record
}

// TrainingSegments converts the truth of a population into labeled event
// segments usable as Event Editor training data: for each true triplet, the
// covered raw records become a designated segment (mirroring an analyst
// designating segments on the map view against known behavior).
//
// Devices are visited in sorted order and the result is sorted by event, so
// both which segments fill the perEvent quota and the order they reach the
// Event Editor (and from there events.json and the trained model) are
// deterministic. An earlier version ranged the truths map directly: with
// more candidate triplets than perEvent, the training set itself depended on
// map iteration order — the same bug class as PR 1's refineByRegion vote.
func TrainingSegments(raw *position.Dataset, truths map[position.DeviceID]Truth, perEvent int) []EventSegments {
	devs := make([]position.DeviceID, 0, len(truths))
	//trips:commutative key collection; iteration order is erased by the sort below
	for dev := range truths {
		devs = append(devs, dev)
	}
	sort.Slice(devs, func(i, j int) bool { return devs[i] < devs[j] })

	byEvent := make(map[semantics.Event][][]position.Record)
	for _, dev := range devs {
		seq := raw.Sequence(dev)
		if seq == nil {
			continue
		}
		for _, tr := range truths[dev].Semantics.Triplets {
			if len(byEvent[tr.Event]) >= perEvent {
				continue
			}
			w := seq.TimeWindow(tr.From, tr.To)
			if w.Len() < 4 {
				continue
			}
			cp := make([]position.Record, w.Len())
			copy(cp, w.Records)
			byEvent[tr.Event] = append(byEvent[tr.Event], cp)
		}
	}

	events := make([]semantics.Event, 0, len(byEvent))
	//trips:commutative key collection; iteration order is erased by the sort below
	for ev := range byEvent {
		events = append(events, ev)
	}
	sort.Slice(events, func(i, j int) bool { return events[i] < events[j] })
	out := make([]EventSegments, 0, len(events))
	for _, ev := range events {
		out = append(out, EventSegments{Event: ev, Segments: byEvent[ev]})
	}
	return out
}
