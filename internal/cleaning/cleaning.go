// Package cleaning implements the Cleaning layer of the TRIPS three-layer
// translation framework (paper Fig. 3) — the Raw Data Cleaner module.
//
// "The Cleaning layer identifies and repairs the distinct raw data errors
// that result from the indoor positioning. Considering the speed constraint
// that people cannot move too fast indoors, the invalid positioning records
// are identified by checking the speeds between consecutive positioning
// records based on the minimum indoor walking distance [13]. An invalid
// positioning record is repaired in two steps. A floor value correction
// fixes an error in that record's floor value. If the speed constraint
// violation still occurs after the correction, a location interpolation is
// performed by deriving the possible locations at the time of that record
// based on the indoor geometrical and topological information captured by
// the DSM."
//
// The implementation follows that order exactly: speed-constraint detection
// against the DSM walking distance, then per-record floor correction, then
// location interpolation along the DSM walking path between the surrounding
// valid anchors. Records outside walkable space (inside walls, beyond the
// building) are snapped to the nearest partition first.
package cleaning

import (
	"math"
	"time"

	"trips/internal/dsm"
	"trips/internal/geom"
	"trips/internal/position"
)

// Cleaner cleans raw positioning sequences against a frozen DSM.
type Cleaner struct {
	// Model is the digital space model; required.
	Model *dsm.Model

	// MaxSpeed is the speed constraint in m/s. Indoor pedestrians rarely
	// exceed 2.5 m/s; the default 3.0 leaves headroom for brisk walking.
	MaxSpeed float64

	// UseEuclidean switches the speed check from the minimum indoor
	// walking distance to straight-line distance. It exists for the
	// ablation experiment (E4a) showing that Euclidean
	// distance under-detects wall-crossing errors; production use keeps
	// it false.
	UseEuclidean bool
}

// New returns a Cleaner with the default speed constraint.
func New(m *dsm.Model) *Cleaner { return &Cleaner{Model: m, MaxSpeed: 3.0} }

// Repair kinds recorded per modified record.
const (
	RepairSnap        = "snap"
	RepairFloor       = "floor"
	RepairInterpolate = "interpolate"
)

// Change describes one repaired record.
type Change struct {
	Index  int             `json:"index"`
	Kind   string          `json:"kind"`
	Before position.Record `json:"before"`
	After  position.Record `json:"after"`
}

// Report summarizes a cleaning run.
type Report struct {
	Total        int      `json:"total"`
	Snapped      int      `json:"snapped"`
	FloorFixed   int      `json:"floorFixed"`
	Interpolated int      `json:"interpolated"`
	Changes      []Change `json:"changes,omitempty"`
}

// Modified returns the number of records altered in any way.
func (r Report) Modified() int { return len(r.Changes) }

// maxCleanPasses caps the fixed-point iteration of Clean. Adversarial
// walks occasionally need a second or third pass (a repair anchored on a
// record that a later repair moves); anything still oscillating after five
// passes is returned as-is rather than looping forever.
const maxCleanPasses = 5

// Clean returns a repaired copy of the sequence and the report of what was
// changed. The input is never mutated.
//
// A single snap → detect → repair sweep is not idempotent: interpolating an
// invalid run against an anchor that a repair itself moved can leave a
// residual speed violation that only the next sweep sees. Clean therefore
// iterates the sweep until a pass moves no record (the fixed point — so
// Clean(Clean(s)) ≡ Clean(s)), bounded by maxCleanPasses. The report
// accumulates every pass's repairs, so a record repaired twice appears
// twice.
func (c *Cleaner) Clean(s *position.Sequence) (*position.Sequence, Report) {
	out := s.Clone()
	rep := Report{Total: s.Len()}
	if out.Len() == 0 {
		return out, rep
	}
	var sc cleanScratch
	c.cleanInto(out, c.maxSpeed(), &rep, nil, &sc)
	return out, rep
}

// cleanScratch is reusable working state for one cleaning run: the
// detection masks, the interpolation path buffer and the snap memo.
// CleanFrom threads the instance held in its Work through every sweep, so a
// steady-state incremental flush allocates nothing here; the batch Clean
// uses a throwaway one.
type cleanScratch struct {
	valid []bool
	fresh []bool
	path  []dsm.Location
	snaps []snapMemo
}

// snapMemo is one record's memoized snap: Model.Snap of the exact location
// at. A speed check pairs a record with each neighbour it is tested
// against, in every pass, so without the memo the same record is located
// again and again; keyed by location, a record that cleaning moves or
// re-floors is located afresh.
type snapMemo struct {
	at   dsm.Location
	snap dsm.Snapped
	set  bool
}

// snapOf returns the snap of record i of s where it stands now, located
// once per distinct location in a cleanInto call.
//
//trips:zeroalloc
func (c *Cleaner) snapOf(sc *cleanScratch, s *position.Sequence, i int) dsm.Snapped {
	return c.snapAt(sc, i, s.Records[i].Location())
}

// snapAt returns Model.Snap(l) for the record at index i, from i's memo
// slot when that slot holds exactly l (bit for bit: a record nudged by a
// repair is a new location), otherwise computed and kept there.
//
//trips:zeroalloc
func (c *Cleaner) snapAt(sc *cleanScratch, i int, l dsm.Location) dsm.Snapped {
	m := &sc.snaps[i]
	if !m.set || m.at.Floor != l.Floor ||
		math.Float64bits(m.at.P.X) != math.Float64bits(l.P.X) ||
		math.Float64bits(m.at.P.Y) != math.Float64bits(l.P.Y) {
		*m = snapMemo{at: l, snap: c.Model.Snap(l), set: true}
	}
	return m.snap
}

// maxSpeed returns the effective speed constraint.
func (c *Cleaner) maxSpeed() float64 {
	if c.MaxSpeed <= 0 {
		return 3.0
	}
	return c.MaxSpeed
}

// cleanInto iterates the snap → detect → repair sweep over out to its fixed
// point (bounded by maxCleanPasses), appending repairs to rep. When inv is
// non-nil it must have out.Len() entries; every index detected as a
// speed-constraint violation in any pass is marked true — the precise
// "this record's final value depended on repair anchoring" set that the
// incremental CleanFrom uses to bound its stable prefix.
//
// A run that hits the pass cap mid-oscillation is still deterministic:
// every run over the same records executes the identical passes, and an
// oscillating segment whose anchors lie inside the sequence replays the
// identical capped oscillation in any longer re-clean — which is why
// CleanFrom's stability rules need the invalid marks but not the
// convergence outcome.
func (c *Cleaner) cleanInto(out *position.Sequence, maxSpeed float64, rep *Report, inv []bool, sc *cleanScratch) {
	// The snap memo is indexed by position in out, so it starts empty for
	// every sequence.
	if n := out.Len(); cap(sc.snaps) < n {
		sc.snaps = make([]snapMemo, n)
	} else {
		sc.snaps = sc.snaps[:n]
		clear(sc.snaps)
	}
	for pass := 0; pass < maxCleanPasses; pass++ {
		start := len(rep.Changes)
		c.cleanPass(out, maxSpeed, rep, pass == 0, inv, sc)
		moved := false
		for _, ch := range rep.Changes[start:] {
			if !ch.After.P.Eq(ch.Before.P) || ch.After.Floor != ch.Before.Floor {
				moved = true
				break
			}
		}
		if !moved {
			return
		}
	}
}

// cleanPass runs one in-place snap → detect → floor-fix → interpolate
// sweep, appending repairs to the report. The first sweep also records
// no-op interpolations (a suspect record re-derived to its own value) —
// the online engine's invalid-run tracking needs those flagged — while
// later sweeps record only records that actually moved, so converged
// verification passes don't inflate the counters. inv, when non-nil,
// accumulates every index detected invalid this pass.
func (c *Cleaner) cleanPass(out *position.Sequence, maxSpeed float64, rep *Report, noops bool, inv []bool, sc *cleanScratch) {
	// Step 0: snap every record into walkable space. Positioning noise
	// routinely places points inside walls; all later geometry assumes
	// walkable coordinates.
	for i := range out.Records {
		r := &out.Records[i]
		if sn := c.snapOf(sc, out, i); sn.Part != nil && !sn.P.Eq(r.P) {
			before := *r
			r.P = sn.P
			rep.Snapped++
			rep.Changes = append(rep.Changes, Change{i, RepairSnap, before, *r})
		}
	}

	// Step 1: speed-constraint detection. valid[i] marks records that are
	// consistent with the last valid anchor before them.
	valid := c.detectValid(out, maxSpeed, &sc.valid, sc)
	markInvalid(inv, valid)

	// Step 2: floor value correction. A record rejected only because of a
	// wrong floor becomes valid once its floor is replaced by a plausible
	// neighbor floor.
	floorFixed := 0
	for i := range out.Records {
		if valid[i] {
			continue
		}
		if fixed, fix := c.tryFloorFix(out, valid, i, maxSpeed, sc); fixed {
			before := out.Records[i]
			out.Records[i] = fix
			valid[i] = true
			floorFixed++
			rep.FloorFixed++
			rep.Changes = append(rep.Changes, Change{i, RepairFloor, before, out.Records[i]})
		}
	}

	// Re-detect after floor fixes: fixes were validated against their
	// anchors, but two adjacent fixed records may still be mutually
	// inconsistent; the fresh pass demotes such records to interpolation.
	if floorFixed > 0 {
		fresh := c.detectValid(out, maxSpeed, &sc.fresh, sc)
		for i := range valid {
			valid[i] = fresh[i]
		}
		markInvalid(inv, valid)
	}

	// Step 3: location interpolation for the remaining invalid runs.
	rep.Interpolated += c.interpolateRuns(out, valid, rep, noops, sc)
}

// detectValid walks the sequence keeping a "last valid" anchor: record i is
// valid when the speed needed to reach it from the anchor does not exceed
// maxSpeed. The first record is the initial anchor. The mask is written
// into *buf, reused across calls.
func (c *Cleaner) detectValid(s *position.Sequence, maxSpeed float64, buf *[]bool, sc *cleanScratch) []bool {
	valid := resizeBools(buf, s.Len())
	valid[0] = true
	anchor := 0
	for i := 1; i < s.Len(); i++ {
		if c.speedOK(s.Records[anchor], s.Records[i], c.snapOf(sc, s, anchor), c.snapOf(sc, s, i), maxSpeed) {
			valid[i] = true
			anchor = i
		}
	}
	return valid
}

// speedOK reports whether moving a→b satisfies the speed constraint using
// the configured distance; sa and sb are the records' snaps, which price
// the walking distance.
func (c *Cleaner) speedOK(a, b position.Record, sa, sb dsm.Snapped, maxSpeed float64) bool {
	dt := b.At.Sub(a.At).Seconds()
	if dt <= 0 {
		return a.P.Eq(b.P) && a.Floor == b.Floor
	}
	var d float64
	if c.UseEuclidean {
		if a.Floor != b.Floor {
			// Straight-line distance cannot price a floor change; charge
			// the storey height so cross-floor teleports still register.
			d = a.P.Dist(b.P) + c.Model.FloorHeight*math.Abs(float64(b.Floor-a.Floor))
		} else {
			d = a.P.Dist(b.P)
		}
	} else {
		var ok bool
		d, ok = c.Model.WalkingDistanceSnapped(sa, sb)
		if !ok {
			return false // unreachable: cannot be a genuine movement
		}
	}
	return d/dt <= maxSpeed
}

// tryFloorFix tests whether replacing record i's floor with a neighbor's
// floor, and snapping it on that floor, resolves the violation in both
// directions. It returns the fixed record on success.
func (c *Cleaner) tryFloorFix(s *position.Sequence, valid []bool, i int, maxSpeed float64, sc *cleanScratch) (bool, position.Record) {
	prev := prevValid(valid, i)
	next := nextValid(valid, i)

	var candidates [2]dsm.FloorID
	nc := 0
	if prev >= 0 && s.Records[prev].Floor != s.Records[i].Floor {
		candidates[nc] = s.Records[prev].Floor
		nc++
	}
	if next >= 0 && s.Records[next].Floor != s.Records[i].Floor {
		f := s.Records[next].Floor
		if nc == 0 || candidates[0] != f {
			candidates[nc] = f
			nc++
		}
	}
	for _, f := range candidates[:nc] {
		if !c.Model.HasFloor(f) {
			continue
		}
		trial := s.Records[i]
		trial.Floor = f
		sn := c.Model.Snap(trial.Location())
		if sn.Part != nil && sn.P != trial.P {
			// The checks price the trial where the snap moved it.
			trial.P = sn.P
			sn = c.Model.Snap(trial.Location())
		}
		okPrev := prev < 0 || c.speedOK(s.Records[prev], trial, c.snapOf(sc, s, prev), sn, maxSpeed)
		okNext := next < 0 || c.speedOK(trial, s.Records[next], sn, c.snapOf(sc, s, next), maxSpeed)
		if okPrev && okNext {
			return true, trial
		}
	}
	return false, position.Record{}
}

// markInvalid accumulates the currently-invalid indexes into inv.
func markInvalid(inv, valid []bool) {
	if inv == nil {
		return
	}
	for i, v := range valid {
		if !v {
			inv[i] = true
		}
	}
}

func prevValid(valid []bool, i int) int {
	for j := i - 1; j >= 0; j-- {
		if valid[j] {
			return j
		}
	}
	return -1
}

func nextValid(valid []bool, i int) int {
	for j := i + 1; j < len(valid); j++ {
		if valid[j] {
			return j
		}
	}
	return -1
}

// interpolateRuns repairs every maximal run of invalid records by placing
// them on the DSM walking path between the surrounding valid anchors,
// proportionally to their timestamps. Runs without a following anchor are
// held at the previous anchor's location (the object is assumed to have
// lingered); runs without a preceding anchor mirror from the next anchor.
// With noops false, a repair that derives the record's existing value is
// applied but not reported.
func (c *Cleaner) interpolateRuns(s *position.Sequence, valid []bool, rep *Report, noops bool, sc *cleanScratch) int {
	n := s.Len()
	count := 0
	for i := 0; i < n; {
		if valid[i] {
			i++
			continue
		}
		j := i
		for j < n && !valid[j] {
			j++
		}
		// Invalid run [i, j).
		prev := i - 1 // valid or -1
		next := -1
		if j < n {
			next = j
		}
		for k := i; k < j; k++ {
			before := s.Records[k]
			s.Records[k] = c.interpolateOne(s, prev, next, k, sc)
			valid[k] = true
			if !noops && s.Records[k].P.Eq(before.P) && s.Records[k].Floor == before.Floor {
				continue
			}
			count++
			rep.Changes = append(rep.Changes, Change{k, RepairInterpolate, before, s.Records[k]})
		}
		i = j
	}
	return count
}

// interpolateOne derives the possible location of record k between anchors
// prev and next (either may be absent, not both — the first record is
// always a valid anchor).
func (c *Cleaner) interpolateOne(s *position.Sequence, prev, next, k int, sc *cleanScratch) position.Record {
	r := s.Records[k]
	switch {
	case prev >= 0 && next >= 0:
		a, b := s.Records[prev], s.Records[next]
		path, ok := c.Model.AppendWalkingPathSnapped(sc.path[:0], c.snapOf(sc, s, prev), c.snapOf(sc, s, next))
		sc.path = path[:0]
		if !ok {
			// Disconnected anchors: hold at the earlier one.
			r.P, r.Floor = a.P, a.Floor
			return r
		}
		total := pathLength(path, c.Model.FloorHeight)
		frac := timeFrac(a.At, b.At, r.At)
		p, f := pathAt(path, total*frac, c.Model.FloorHeight)
		r.P, r.Floor = p, f
		// Path legs pass through door centers inside wall bands; the
		// derived location must itself be walkable or a second cleaning
		// pass would re-touch it.
		if sn := c.snapAt(sc, k, r.Location()); sn.Part != nil {
			r.P = sn.P
		}
	case prev >= 0:
		a := s.Records[prev]
		r.P, r.Floor = a.P, a.Floor
	case next >= 0:
		b := s.Records[next]
		r.P, r.Floor = b.P, b.Floor
	}
	return r
}

func timeFrac(a, b, t time.Time) float64 {
	den := b.Sub(a).Seconds()
	if den <= 0 {
		return 0
	}
	f := t.Sub(a).Seconds() / den
	return math.Max(0, math.Min(1, f))
}

// verticalLegFactor mirrors the DSM's pricing of floor changes in the
// walking distance: interpolation must budget travel the same way the speed
// constraint measures it, or interpolated records straddling a floor change
// would violate the very constraint they were derived from.
const verticalLegFactor = 3.0

// legLength prices one path leg: planar distance plus the vertical cost of
// any floor change.
func legLength(a, b dsm.Location, floorHeight float64) float64 {
	d := a.P.Dist(b.P)
	if df := float64(b.Floor - a.Floor); df != 0 {
		d += floorHeight * verticalLegFactor * math.Abs(df)
	}
	return d
}

// pathLength sums the priced lengths of the walking path legs.
func pathLength(path []dsm.Location, floorHeight float64) float64 {
	var d float64
	for i := 1; i < len(path); i++ {
		d += legLength(path[i-1], path[i], floorHeight)
	}
	return d
}

// pathAt returns the point and floor at priced arc-length dist along the
// path. On a floor-changing leg, the planar position interpolates while the
// floor flips at the leg midpoint (the walker is in the shaft).
func pathAt(path []dsm.Location, dist float64, floorHeight float64) (geom.Point, dsm.FloorID) {
	if len(path) == 0 {
		return geom.Point{}, 0
	}
	if dist <= 0 {
		return path[0].P, path[0].Floor
	}
	for i := 1; i < len(path); i++ {
		l := legLength(path[i-1], path[i], floorHeight)
		if dist <= l {
			if l <= geom.Eps {
				return path[i].P, path[i].Floor
			}
			t := dist / l
			f := path[i-1].Floor
			if t > 0.5 {
				f = path[i].Floor
			}
			return path[i-1].P.Lerp(path[i].P, t), f
		}
		dist -= l
	}
	last := path[len(path)-1]
	return last.P, last.Floor
}
