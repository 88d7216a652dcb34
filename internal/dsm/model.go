package dsm

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"sync"

	"trips/internal/geom"
	"trips/internal/intern"
)

// Model is the Digital Space Model: entities, semantic regions and the
// derived topology for a whole venue. Build one with New / AddEntity /
// AddRegion and call Freeze before querying; Freeze computes the spatial
// indexes, the door-connectivity graph and the region adjacency that the
// Cleaner, Annotator and Complementor rely on.
//
// A frozen Model is immutable and safe for concurrent readers.
type Model struct {
	// Name labels the venue, e.g. "hangzhou-mall".
	Name string `json:"name"`
	// FloorHeight is the vertical distance between floors in meters; it
	// prices floor changes in the walking distance.
	FloorHeight float64 `json:"floorHeight"`

	Entities []*Entity         `json:"entities"`
	Regions  []*SemanticRegion `json:"regions"`

	// Derived state (not serialized; rebuilt by Freeze).
	frozen    bool
	byID      map[EntityID]*Entity
	regByID   map[RegionID]*SemanticRegion
	regByTag  map[string]*SemanticRegion
	floors    map[FloorID]*floorIndex
	floorList []FloorID
	nav       *navGraph
	regAdj    map[RegionID][]RegionID

	// regIDs interns region ids into dense indexes, assigned in sorted
	// RegionID order so integer comparison reproduces the lexicographic
	// tie-breaks the annotator's voting rules are specified in (intern.None
	// plays the role of the empty "no region" id, sorting below all).
	regIDs   *intern.Table
	regByIdx []*SemanticRegion

	// navScratch pools Dijkstra working state (see topology.go) so
	// WalkingDistance/WalkingPath are allocation-free at steady state.
	navScratch sync.Pool
}

// floorIndex is the per-floor spatial index over walkable partitions and
// regions. partArea and regArea hold each shape's area, computed once at
// Freeze for the smallest-area tie-break in Locate and RegionAt.
type floorIndex struct {
	bounds     geom.Rect
	partitions []*Entity // walkable entities on this floor
	partArea   []float64
	partGrid   *geom.GridIndex
	regions    []*SemanticRegion
	regArea    []float64
	regGrid    *geom.GridIndex
}

// New creates an empty model with the given venue name and a default floor
// height of 4.5 m (typical mall storey).
func New(name string) *Model {
	return &Model{Name: name, FloorHeight: 4.5}
}

// AddEntity appends an entity. It panics when called after Freeze, which
// would silently desynchronize the derived indexes.
func (m *Model) AddEntity(e *Entity) {
	if m.frozen {
		panic("dsm: AddEntity after Freeze")
	}
	m.Entities = append(m.Entities, e)
}

// AddRegion appends a semantic region. It panics when called after Freeze.
func (m *Model) AddRegion(r *SemanticRegion) {
	if m.frozen {
		panic("dsm: AddRegion after Freeze")
	}
	m.Regions = append(m.Regions, r)
}

// Freeze validates the model, resolves the entity↔region mapping, builds the
// per-floor spatial indexes, the navigation graph and the region adjacency.
// A model must be frozen before any query method is used.
func (m *Model) Freeze() error {
	if m.frozen {
		return nil
	}
	if m.FloorHeight <= 0 {
		m.FloorHeight = 4.5
	}
	m.byID = make(map[EntityID]*Entity, len(m.Entities))
	for _, e := range m.Entities {
		if err := e.Validate(); err != nil {
			return err
		}
		if _, dup := m.byID[e.ID]; dup {
			return fmt.Errorf("dsm: duplicate entity ID %q", e.ID)
		}
		m.byID[e.ID] = e
	}
	m.regByID = make(map[RegionID]*SemanticRegion, len(m.Regions))
	m.regByTag = make(map[string]*SemanticRegion, len(m.Regions))
	for _, r := range m.Regions {
		if err := r.Validate(); err != nil {
			return err
		}
		if _, dup := m.regByID[r.ID]; dup {
			return fmt.Errorf("dsm: duplicate region ID %q", r.ID)
		}
		m.regByID[r.ID] = r
		m.regByTag[r.Tag] = r
		for _, eid := range r.Entities {
			if _, ok := m.byID[eid]; !ok {
				return fmt.Errorf("dsm: region %s references unknown entity %q", r.ID, eid)
			}
		}
	}

	// Dense ids: entities index in insertion order (only ever used as an
	// array subscript), regions in sorted-RegionID order (compared by the
	// annotator's tie-breaks, so order must mirror the string order).
	for i, e := range m.Entities {
		e.idx = int32(i)
	}
	m.regIDs = intern.NewTable(len(m.Regions))
	m.regByIdx = make([]*SemanticRegion, 0, len(m.Regions))
	sortedRegs := append([]*SemanticRegion(nil), m.Regions...)
	sort.Slice(sortedRegs, func(i, j int) bool { return sortedRegs[i].ID < sortedRegs[j].ID })
	for _, r := range sortedRegs {
		r.idx = m.regIDs.Intern(string(r.ID))
		m.regByIdx = append(m.regByIdx, r)
	}

	m.buildFloorIndexes()
	m.deriveRegionEntities()
	if err := m.buildNavGraph(); err != nil {
		return err
	}
	m.buildRegionAdjacency()
	m.frozen = true
	return nil
}

// buildFloorIndexes groups walkable entities and regions per floor, indexes
// their bounding boxes on a 4 m grid and records their areas.
func (m *Model) buildFloorIndexes() {
	m.floors = make(map[FloorID]*floorIndex)
	fl := func(f FloorID) *floorIndex {
		fi, ok := m.floors[f]
		if !ok {
			fi = &floorIndex{
				bounds:   geom.EmptyRect(),
				partGrid: geom.NewGridIndex(4),
				regGrid:  geom.NewGridIndex(4),
			}
			m.floors[f] = fi
		}
		return fi
	}
	for _, e := range m.Entities {
		fi := fl(e.Floor)
		fi.bounds = fi.bounds.Union(e.Shape.Bounds())
		if e.Kind.Walkable() {
			fi.partGrid.Insert(len(fi.partitions), e.Shape.Bounds())
			fi.partitions = append(fi.partitions, e)
			fi.partArea = append(fi.partArea, e.Shape.Area())
		}
	}
	for _, r := range m.Regions {
		fi := fl(r.Floor)
		fi.regGrid.Insert(len(fi.regions), r.Shape.Bounds())
		fi.regions = append(fi.regions, r)
		fi.regArea = append(fi.regArea, r.Shape.Area())
	}
	m.floorList = m.floorList[:0]
	//trips:commutative key collection; iteration order is erased by the sort below
	for f := range m.floors {
		m.floorList = append(m.floorList, f)
	}
	sort.Slice(m.floorList, func(i, j int) bool { return m.floorList[i] < m.floorList[j] })
}

// deriveRegionEntities fills missing region→entity mappings geometrically:
// a region covers every walkable entity whose centroid it contains.
func (m *Model) deriveRegionEntities() {
	for _, r := range m.Regions {
		if len(r.Entities) > 0 {
			continue
		}
		fi := m.floors[r.Floor]
		if fi == nil {
			continue
		}
		for _, e := range fi.partitions {
			if r.Shape.Contains(e.Center()) {
				r.Entities = append(r.Entities, e.ID)
			}
		}
	}
}

// Frozen reports whether Freeze has completed.
func (m *Model) Frozen() bool { return m.frozen }

// Region returns the region with the given ID, or nil.
func (m *Model) Region(id RegionID) *SemanticRegion { return m.regByID[id] }

// RegionByTag returns the region with the given semantic tag, or nil.
func (m *Model) RegionByTag(tag string) *SemanticRegion { return m.regByTag[tag] }

// Floors returns the floor numbers present in the model, ascending.
func (m *Model) Floors() []FloorID { return m.floorList }

// FloorBounds returns the bounding rectangle of all entities on floor f.
func (m *Model) FloorBounds(f FloorID) geom.Rect {
	if fi := m.floors[f]; fi != nil {
		return fi.bounds
	}
	return geom.EmptyRect()
}

// HasFloor reports whether the model has any entity on floor f.
func (m *Model) HasFloor(f FloorID) bool { _, ok := m.floors[f]; return ok }

// Locate returns the walkable partition containing the given location, or
// nil when the point lies in a wall, an obstacle or outside the building.
// When several partitions overlap (e.g. a staircase inside a hallway) the
// smallest-area one wins, matching the most specific entity.
// It iterates the grid's point candidates in place, without allocating;
// Locate runs for every record the Cleaner speed-checks.
//
//trips:zeroalloc
func (m *Model) Locate(p geom.Point, f FloorID) *Entity {
	fi := m.floors[f]
	if fi == nil {
		return nil
	}
	var best *Entity
	bestArea := 0.0
	for _, i := range fi.partGrid.PointCandidates(p) {
		if !fi.partGrid.Bounds(i).Contains(p) {
			continue
		}
		e := fi.partitions[i]
		if e.Shape.Contains(p) {
			if a := fi.partArea[i]; best == nil || a < bestArea {
				best, bestArea = e, a
			}
		}
	}
	return best
}

// SnapToWalkable returns the nearest point inside walkable space on floor f,
// together with the partition that contains it. If p is already walkable it
// is returned unchanged. The boolean is false when the floor has no
// partitions at all.
//
// Otherwise one pass over the floor's partitions finds the least
// DistToPoint, the first in floor order on a tie, and clamps p inside that
// partition. A partition whose bounding box is farther than the best
// distance so far, by a margin (Eps per metre of coordinate scale) that
// rounding cannot cross, goes unmeasured. The pass is linear in the floor's
// partitions: it beats a grid walk on the venues the workloads run (10 to 12
// a floor) and for off-plan points at any size, matches one for in-wall
// points at 100 shops a floor, and at 300 costs about twice as much there.
//
//trips:zeroalloc
func (m *Model) SnapToWalkable(p geom.Point, f FloorID) (geom.Point, *Entity, bool) {
	if e := m.Locate(p, f); e != nil {
		return p, e, true
	}
	fi := m.floors[f]
	if fi == nil || len(fi.partitions) == 0 {
		return p, nil, false
	}
	scale := 1 + math.Abs(p.X) + math.Abs(p.Y)
	var best *Entity
	bestD, limit2 := 0.0, math.Inf(1)
	for i, e := range fi.partitions {
		if fi.partGrid.Bounds(i).Dist2(p) > limit2 {
			continue
		}
		if d := e.Shape.DistToPoint(p); best == nil || d < bestD {
			best, bestD = e, d
			limit := d + geom.Eps*(scale+d)
			limit2 = limit * limit
		}
	}
	return clampInside(best.Shape, p), best, true
}

// clampInside returns the boundary point of pg nearest to p, nudged slightly
// inward so that subsequent Contains checks succeed.
func clampInside(pg geom.Polygon, p geom.Point) geom.Point {
	b := pg.ClosestBoundaryPoint(p)
	c := pg.Centroid()
	if pg.Contains(c) {
		// Pull 1 cm toward the centroid.
		d := c.Sub(b)
		if n := d.Norm(); n > geom.Eps {
			return b.Add(d.Scale(0.01 / n))
		}
	}
	return b
}

// RegionAt returns the semantic region containing the location, or nil.
// Overlapping regions resolve to the smallest area, the most specific tag.
//
//trips:zeroalloc
func (m *Model) RegionAt(p geom.Point, f FloorID) *SemanticRegion {
	fi := m.floors[f]
	if fi == nil {
		return nil
	}
	var best *SemanticRegion
	bestArea := 0.0
	for _, i := range fi.regGrid.PointCandidates(p) {
		if !fi.regGrid.Bounds(i).Contains(p) {
			continue
		}
		r := fi.regions[i]
		if r.Shape.Contains(p) {
			if a := fi.regArea[i]; best == nil || a < bestArea {
				best, bestArea = r, a
			}
		}
	}
	return best
}

// RegionIdxAt returns the interned index of the region containing the
// location, or intern.None. It is RegionAt for the hot path: the annotator
// labels every tail record with it and compares/hashes the resulting ints,
// materializing region strings only when triplets are sealed.
//
//trips:zeroalloc
func (m *Model) RegionIdxAt(p geom.Point, f FloorID) intern.ID {
	if r := m.RegionAt(p, f); r != nil {
		return r.idx
	}
	return intern.None
}

// NumRegions returns the number of semantic regions; valid interned region
// indexes are [0, NumRegions).
func (m *Model) NumRegions() int { return len(m.regByIdx) }

// RegionByIdx returns the region with the given interned index, or nil for
// intern.None.
//
//trips:zeroalloc
func (m *Model) RegionByIdx(ix intern.ID) *SemanticRegion {
	if ix == intern.None {
		return nil
	}
	return m.regByIdx[ix]
}

// RegionsOnFloor returns the regions on floor f in insertion order.
func (m *Model) RegionsOnFloor(f FloorID) []*SemanticRegion {
	if fi := m.floors[f]; fi != nil {
		return fi.regions
	}
	return nil
}

// AdjacentRegions returns the regions directly reachable from r through the
// walkable topology (shared partitions or partitions joined by one door),
// computed by Freeze. The Complementor restricts its inference paths to this
// graph.
func (m *Model) AdjacentRegions(r RegionID) []RegionID { return m.regAdj[r] }

// MarshalJSON / file round-trip -------------------------------------------

// modelJSON is the serialized form: only declarative state, no indexes.
type modelJSON struct {
	Name        string            `json:"name"`
	FloorHeight float64           `json:"floorHeight"`
	Entities    []*Entity         `json:"entities"`
	Regions     []*SemanticRegion `json:"regions"`
}

// WriteTo serializes the model as indented JSON.
func (m *Model) WriteTo(w io.Writer) (int64, error) {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	err := enc.Encode(modelJSON{m.Name, m.FloorHeight, m.Entities, m.Regions})
	return 0, err
}

// Save writes the model to a JSON file.
func (m *Model) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := m.WriteTo(f); err != nil {
		return fmt.Errorf("dsm: save %s: %w", path, err)
	}
	return f.Close()
}

// Read parses a model from JSON and freezes it.
func Read(r io.Reader) (*Model, error) {
	var mj modelJSON
	if err := json.NewDecoder(r).Decode(&mj); err != nil {
		return nil, fmt.Errorf("dsm: decode: %w", err)
	}
	m := &Model{Name: mj.Name, FloorHeight: mj.FloorHeight, Entities: mj.Entities, Regions: mj.Regions}
	if err := m.Freeze(); err != nil {
		return nil, err
	}
	return m, nil
}

// Load reads a model from a JSON file and freezes it.
func Load(path string) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}
