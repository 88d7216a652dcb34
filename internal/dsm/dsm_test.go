package dsm

import (
	"bytes"
	"math"
	"testing"

	"trips/internal/geom"
)

// newTestVenue builds a small two-floor venue:
//
//	floor 1:  hallway H1 along the bottom, rooms R101..R103 above it,
//	          thin doors D101..D103 in the dividing wall, staircase S@1F
//	          opening into the hallway.
//	floor 2:  hallway H2, room R201 with door D201, staircase S@2F.
//
// Regions: Adidas→R101, Nike→R102, Cashier→R103, Hall→H1, Books→R201.
func newTestVenue(t testing.TB) *Model {
	t.Helper()
	m := New("test-venue")

	rect := func(x0, y0, x1, y1 float64) geom.Polygon {
		return geom.NewRect(geom.Pt(x0, y0), geom.Pt(x1, y1)).ToPolygon()
	}
	add := func(id string, k EntityKind, f FloorID, shape geom.Polygon, name string) {
		m.AddEntity(&Entity{ID: EntityID(id), Kind: k, Name: name, Floor: f, Shape: shape})
	}

	// Floor 1.
	add("H1", KindHallway, 1, rect(0, 0, 40, 10), "Hall 1F")
	add("R101", KindRoom, 1, rect(0, 10.4, 10, 20), "Shop 101")
	add("R102", KindRoom, 1, rect(10, 10.4, 20, 20), "Shop 102")
	add("R103", KindRoom, 1, rect(20, 10.4, 30, 20), "Shop 103")
	add("W1", KindWall, 1, rect(0, 10, 40, 10.4), "dividing wall")
	add("D101", KindDoor, 1, rect(4, 10, 6, 10.4), "door 101")
	add("D102", KindDoor, 1, rect(14, 10, 16, 10.4), "door 102")
	add("D103", KindDoor, 1, rect(24, 10, 26, 10.4), "door 103")
	add("S1F", KindStaircase, 1, rect(35, 0, 40, 5), "Stairs A")

	// Floor 2.
	add("H2", KindHallway, 2, rect(0, 0, 40, 10), "Hall 2F")
	add("R201", KindRoom, 2, rect(0, 10.4, 10, 20), "Shop 201")
	add("D201", KindDoor, 2, rect(4, 10, 6, 10.4), "door 201")
	add("S2F", KindStaircase, 2, rect(35, 0, 40, 5), "Stairs A")

	reg := func(id, tag, cat string, f FloorID, shape geom.Polygon, ents ...EntityID) {
		m.AddRegion(&SemanticRegion{ID: RegionID(id), Tag: tag, Category: cat, Floor: f, Shape: shape, Entities: ents})
	}
	reg("rg-adidas", "Adidas", "shop", 1, rect(0, 10.4, 10, 20), "R101")
	reg("rg-nike", "Nike", "shop", 1, rect(10, 10.4, 20, 20), "R102")
	reg("rg-cashier", "Cashier", "service", 1, rect(20, 10.4, 30, 20), "R103")
	reg("rg-hall", "Center Hall", "hall", 1, rect(0, 0, 40, 10), "H1")
	reg("rg-books", "Books", "shop", 2, rect(0, 10.4, 10, 20), "R201")

	if err := m.Freeze(); err != nil {
		t.Fatalf("Freeze: %v", err)
	}
	return m
}

func TestFloorIDString(t *testing.T) {
	if got := FloorID(3).String(); got != "3F" {
		t.Errorf("3F = %q", got)
	}
	if got := FloorID(-1).String(); got != "B1" {
		t.Errorf("B1 = %q", got)
	}
}

func TestFreezeValidation(t *testing.T) {
	m := New("bad")
	m.AddEntity(&Entity{ID: "", Kind: KindRoom, Floor: 1,
		Shape: geom.NewRect(geom.Pt(0, 0), geom.Pt(1, 1)).ToPolygon()})
	if err := m.Freeze(); err == nil {
		t.Error("empty entity ID accepted")
	}

	m = New("dup")
	sq := geom.NewRect(geom.Pt(0, 0), geom.Pt(1, 1)).ToPolygon()
	m.AddEntity(&Entity{ID: "a", Kind: KindRoom, Floor: 1, Shape: sq})
	m.AddEntity(&Entity{ID: "a", Kind: KindRoom, Floor: 1, Shape: sq})
	if err := m.Freeze(); err == nil {
		t.Error("duplicate entity ID accepted")
	}

	m = New("badkind")
	m.AddEntity(&Entity{ID: "a", Kind: "spaceship", Floor: 1, Shape: sq})
	if err := m.Freeze(); err == nil {
		t.Error("unknown kind accepted")
	}

	m = New("orphan-door")
	m.AddEntity(&Entity{ID: "d", Kind: KindDoor, Floor: 1,
		Shape: geom.NewRect(geom.Pt(100, 100), geom.Pt(101, 101)).ToPolygon()})
	if err := m.Freeze(); err == nil {
		t.Error("door with no adjacent partition accepted")
	}

	m = New("bad-region-ref")
	m.AddEntity(&Entity{ID: "a", Kind: KindRoom, Floor: 1, Shape: sq})
	m.AddRegion(&SemanticRegion{ID: "r", Tag: "X", Floor: 1, Shape: sq, Entities: []EntityID{"nope"}})
	if err := m.Freeze(); err == nil {
		t.Error("region referencing unknown entity accepted")
	}
}

func TestAddAfterFreezePanics(t *testing.T) {
	m := newTestVenue(t)
	defer func() {
		if recover() == nil {
			t.Error("AddEntity after Freeze should panic")
		}
	}()
	m.AddEntity(&Entity{ID: "x"})
}

func TestLookups(t *testing.T) {
	m := newTestVenue(t)
	if r := m.RegionByTag("Nike"); r == nil || r.ID != "rg-nike" {
		t.Errorf("RegionByTag = %+v", r)
	}
	if got := m.Floors(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("Floors = %v", got)
	}
	if !m.HasFloor(2) || m.HasFloor(7) {
		t.Error("HasFloor wrong")
	}
	b := m.FloorBounds(1)
	if b.Width() < 39 || b.Height() < 19 {
		t.Errorf("FloorBounds = %v", b)
	}
	if !m.FloorBounds(9).IsEmpty() {
		t.Error("unknown floor bounds should be empty")
	}
}

func TestLocate(t *testing.T) {
	m := newTestVenue(t)
	if e := m.Locate(geom.Pt(5, 15), 1); e == nil || e.ID != "R101" {
		t.Errorf("Locate room = %+v", e)
	}
	if e := m.Locate(geom.Pt(20, 5), 1); e == nil || e.ID != "H1" {
		t.Errorf("Locate hallway = %+v", e)
	}
	// Inside the dividing wall: not walkable.
	if e := m.Locate(geom.Pt(8, 10.2), 1); e != nil && e.Kind == KindWall {
		t.Errorf("Locate wall returned %+v", e)
	}
	// Outside the building.
	if e := m.Locate(geom.Pt(-5, -5), 1); e != nil {
		t.Errorf("Locate outside = %+v", e)
	}
	// Unknown floor.
	if e := m.Locate(geom.Pt(5, 5), 9); e != nil {
		t.Errorf("Locate floor 9 = %+v", e)
	}
	// Staircase is the most specific partition at its own location even if
	// the hallway overlapped it (here they don't overlap, simple check).
	if e := m.Locate(geom.Pt(37, 2), 1); e == nil || e.ID != "S1F" {
		t.Errorf("Locate staircase = %+v", e)
	}
}

func TestSnapToWalkable(t *testing.T) {
	m := newTestVenue(t)
	// Already walkable: unchanged.
	p, e, ok := m.SnapToWalkable(geom.Pt(5, 15), 1)
	if !ok || e.ID != "R101" || !p.Eq(geom.Pt(5, 15)) {
		t.Errorf("snap noop = %v %v %v", p, e, ok)
	}
	// A point just outside the building snaps to the hallway edge.
	p, e, ok = m.SnapToWalkable(geom.Pt(20, -1), 1)
	if !ok || e.ID != "H1" {
		t.Fatalf("snap outside = %v %v %v", p, e, ok)
	}
	if m.Locate(p, 1) == nil {
		t.Errorf("snapped point %v not walkable", p)
	}
	// Unknown floor fails.
	if _, _, ok := m.SnapToWalkable(geom.Pt(0, 0), 42); ok {
		t.Error("snap on unknown floor should fail")
	}
}

func TestRegionAt(t *testing.T) {
	m := newTestVenue(t)
	if r := m.RegionAt(geom.Pt(15, 15), 1); r == nil || r.Tag != "Nike" {
		t.Errorf("RegionAt Nike = %+v", r)
	}
	if r := m.RegionAt(geom.Pt(20, 5), 1); r == nil || r.Tag != "Center Hall" {
		t.Errorf("RegionAt hall = %+v", r)
	}
	if r := m.RegionAt(geom.Pt(5, 15), 2); r == nil || r.Tag != "Books" {
		t.Errorf("RegionAt floor2 = %+v", r)
	}
	if r := m.RegionAt(geom.Pt(-3, -3), 1); r != nil {
		t.Errorf("RegionAt outside = %+v", r)
	}
}

func TestWalkingDistanceSamePartition(t *testing.T) {
	m := newTestVenue(t)
	d, ok := m.WalkingDistance(Location{geom.Pt(2, 2), 1}, Location{geom.Pt(10, 8), 1})
	if !ok {
		t.Fatal("unreachable within hallway")
	}
	if want := math.Hypot(8, 6); !almostEq(d, want) {
		t.Errorf("same-partition distance = %v, want %v", d, want)
	}
}

func TestWalkingDistanceThroughDoors(t *testing.T) {
	m := newTestVenue(t)
	from := Location{geom.Pt(5, 15), 1} // in R101
	to := Location{geom.Pt(15, 15), 1}  // in R102
	d, ok := m.WalkingDistance(from, to)
	if !ok {
		t.Fatal("R101→R102 unreachable")
	}
	euclid := from.P.Dist(to.P)
	if d <= euclid {
		t.Errorf("walking distance %v should exceed euclidean %v (wall between)", d, euclid)
	}
	// Path via D101 (≈5,10.2) and D102 (≈15,10.2): about 5+10+5 = 20.
	if d < 18 || d > 23 {
		t.Errorf("walking distance = %v, want ≈20", d)
	}
}

func TestWalkingDistanceCrossFloor(t *testing.T) {
	m := newTestVenue(t)
	from := Location{geom.Pt(5, 15), 1} // Adidas
	to := Location{geom.Pt(5, 15), 2}   // Books
	d, ok := m.WalkingDistance(from, to)
	if !ok {
		t.Fatal("cross-floor unreachable")
	}
	// Must include the vertical cost of one storey.
	if d < m.FloorHeight*verticalCostFactor {
		t.Errorf("cross-floor distance %v below vertical cost", d)
	}
	// Symmetry.
	d2, ok := m.WalkingDistance(to, from)
	if !ok || !almostEq(d, d2) {
		t.Errorf("asymmetric walking distance: %v vs %v", d, d2)
	}
}

func TestWalkingPath(t *testing.T) {
	m := newTestVenue(t)
	from := Location{geom.Pt(5, 15), 1}
	to := Location{geom.Pt(15, 15), 1}
	path := m.WalkingPath(from, to)
	if len(path) < 4 {
		t.Fatalf("path = %v, want endpoints + 2 doors", path)
	}
	if !path[0].P.Eq(from.P) || !path[len(path)-1].P.Eq(to.P) {
		t.Error("path endpoints wrong")
	}
	// Interior nodes are door centers inside the wall band.
	for _, loc := range path[1 : len(path)-1] {
		if loc.P.Y < 9.5 || loc.P.Y > 10.9 {
			t.Errorf("path node %v not at the wall door band", loc.P)
		}
	}
	// Same-partition path is the straight segment.
	p2 := m.WalkingPath(Location{geom.Pt(1, 1), 1}, Location{geom.Pt(3, 3), 1})
	if len(p2) != 2 {
		t.Errorf("same-partition path = %v", p2)
	}
}

func TestReachable(t *testing.T) {
	m := newTestVenue(t)
	if !m.Reachable(Location{geom.Pt(5, 15), 1}, Location{geom.Pt(5, 15), 2}) {
		t.Error("venue should be fully connected")
	}
	if m.Reachable(Location{geom.Pt(5, 15), 1}, Location{geom.Pt(5, 15), 42}) {
		t.Error("unknown floor should be unreachable")
	}
}

func TestAdjacentRegions(t *testing.T) {
	m := newTestVenue(t)
	adj := m.AdjacentRegions("rg-adidas")
	// Adidas connects to the hall through D101. Not directly to Nike
	// except via geometric touch (they share the x=10 boundary edge).
	foundHall := false
	for _, id := range adj {
		if id == "rg-hall" {
			foundHall = true
		}
	}
	if !foundHall {
		t.Errorf("Adidas adjacency %v misses the hall", adj)
	}
	// Region adjacency is symmetric.
	for _, id := range adj {
		back := m.AdjacentRegions(id)
		ok := false
		for _, b := range back {
			if b == "rg-adidas" {
				ok = true
			}
		}
		if !ok {
			t.Errorf("adjacency not symmetric for %s", id)
		}
	}
}

func TestDerivedRegionEntities(t *testing.T) {
	// A region without an explicit entity list picks up entities whose
	// centroid it covers.
	m := New("derive")
	sq := geom.NewRect(geom.Pt(0, 0), geom.Pt(10, 10)).ToPolygon()
	m.AddEntity(&Entity{ID: "room", Kind: KindRoom, Floor: 1, Shape: sq})
	m.AddRegion(&SemanticRegion{ID: "r", Tag: "X", Floor: 1,
		Shape: geom.NewRect(geom.Pt(-1, -1), geom.Pt(11, 11)).ToPolygon()})
	if err := m.Freeze(); err != nil {
		t.Fatal(err)
	}
	r := m.Region("r")
	if len(r.Entities) != 1 || r.Entities[0] != "room" {
		t.Errorf("derived entities = %v", r.Entities)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	m := newTestVenue(t)
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	m2, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if m2.Name != m.Name || len(m2.Entities) != len(m.Entities) || len(m2.Regions) != len(m.Regions) {
		t.Errorf("round trip mismatch: %s %d %d", m2.Name, len(m2.Entities), len(m2.Regions))
	}
	// The reloaded model answers the same queries.
	d1, _ := m.WalkingDistance(Location{geom.Pt(5, 15), 1}, Location{geom.Pt(15, 15), 1})
	d2, ok := m2.WalkingDistance(Location{geom.Pt(5, 15), 1}, Location{geom.Pt(15, 15), 1})
	if !ok || !almostEq(d1, d2) {
		t.Errorf("reloaded distance %v vs %v", d2, d1)
	}
}

func TestSaveLoadFile(t *testing.T) {
	m := newTestVenue(t)
	path := t.TempDir() + "/venue.json"
	if err := m.Save(path); err != nil {
		t.Fatalf("Save: %v", err)
	}
	m2, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if m2.Name != "test-venue" {
		t.Errorf("loaded name = %q", m2.Name)
	}
	if _, err := Load(t.TempDir() + "/missing.json"); err == nil {
		t.Error("loading missing file should fail")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewBufferString("{not json")); err == nil {
		t.Error("garbage JSON accepted")
	}
}

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-6 }
