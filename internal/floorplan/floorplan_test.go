package floorplan

import (
	"image"
	"image/color"
	"testing"

	"trips/internal/dsm"
	"trips/internal/geom"
)

func TestDrawAndUndo(t *testing.T) {
	c := NewCanvas(1)
	id1, err := c.DrawRect(dsm.KindHallway, "hall", geom.Pt(0, 0), geom.Pt(40, 10))
	if err != nil {
		t.Fatalf("DrawRect: %v", err)
	}
	id2, err := c.DrawRect(dsm.KindRoom, "shop", geom.Pt(0, 10.4), geom.Pt(10, 20))
	if err != nil {
		t.Fatalf("DrawRect 2: %v", err)
	}
	if id1 == id2 {
		t.Error("shape IDs not unique")
	}
	if len(c.Shapes()) != 2 {
		t.Fatalf("shapes = %d", len(c.Shapes()))
	}
	if !c.Undo() {
		t.Fatal("Undo failed")
	}
	if len(c.Shapes()) != 1 {
		t.Errorf("after undo: %d shapes", len(c.Shapes()))
	}
	if _, err := c.DrawCircle(dsm.KindObstacle, "pillar", geom.Pt(20, 5), 1); err != nil {
		t.Fatal(err)
	}
	// Undo on an empty stack returns false eventually.
	for c.Undo() {
	}
	if len(c.Shapes()) != 0 {
		t.Errorf("full undo left %d shapes", len(c.Shapes()))
	}
}

func TestDrawValidation(t *testing.T) {
	c := NewCanvas(1)
	if _, err := c.DrawPolygon(dsm.KindRoom, "bad", geom.Pt(0, 0), geom.Pt(1, 1)); err == nil {
		t.Error("degenerate polygon accepted")
	}
	if _, err := c.DrawCircle(dsm.KindObstacle, "bad", geom.Pt(0, 0), 0); err == nil {
		t.Error("zero-radius circle accepted")
	}
}

func TestSnapAutoAdjust(t *testing.T) {
	c := NewCanvas(1)
	if _, err := c.DrawRect(dsm.KindHallway, "hall", geom.Pt(0, 0), geom.Pt(10, 10)); err != nil {
		t.Fatal(err)
	}
	// A new polygon with a vertex within snap radius of (10, 10) snaps.
	if _, err := c.DrawPolygon(dsm.KindRoom, "room",
		geom.Pt(10.2, 9.9), geom.Pt(20, 10), geom.Pt(20, 20), geom.Pt(10, 20)); err != nil {
		t.Fatal(err)
	}
	s := c.Shapes()[1]
	if !s.Polygon.Vertices[0].Eq(geom.Pt(10, 10)) {
		t.Errorf("vertex not snapped: %v", s.Polygon.Vertices[0])
	}
	// Snapping off.
	c.SnapRadius = 0
	c.DrawPolygon(dsm.KindRoom, "room2",
		geom.Pt(10.2, 9.9), geom.Pt(30, 10), geom.Pt(30, 20))
	s2 := c.Shapes()[2]
	if s2.Polygon.Vertices[0].Eq(geom.Pt(10, 10)) {
		t.Error("vertex snapped with radius 0")
	}
}

func TestStyleTag(t *testing.T) {
	c := NewCanvas(1)
	id, _ := c.DrawRect(dsm.KindRoom, "shop", geom.Pt(0, 0), geom.Pt(10, 10))
	if err := c.SetStyle(id, "fill", "#ffcc00"); err != nil {
		t.Fatal(err)
	}
	if err := c.AssignTag(id, "Adidas", "shop"); err != nil {
		t.Fatal(err)
	}
	if err := c.AssignTag(id, "", "shop"); err == nil {
		t.Error("empty tag accepted")
	}
	s := c.Shapes()[0]
	if s.Style["fill"] != "#ffcc00" || s.SemanticTag != "Adidas" {
		t.Errorf("attributes = %+v", s)
	}
}

// buildTestCanvas draws the canonical hall + two shops + doors layout.
func buildTestCanvas(t *testing.T) *Canvas {
	t.Helper()
	c := NewCanvas(1)
	mustDraw := func(id int, err error) int {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	mustDraw(c.DrawRect(dsm.KindHallway, "hall", geom.Pt(0, 0), geom.Pt(20, 8)))
	s1 := mustDraw(c.DrawRect(dsm.KindRoom, "shop-1", geom.Pt(0, 8.4), geom.Pt(10, 16)))
	s2 := mustDraw(c.DrawRect(dsm.KindRoom, "shop-2", geom.Pt(10, 8.4), geom.Pt(20, 16)))
	mustDraw(c.DrawRect(dsm.KindWall, "wall", geom.Pt(0, 8.05), geom.Pt(20, 8.35)))
	mustDraw(c.DrawRect(dsm.KindDoor, "d1", geom.Pt(4, 8), geom.Pt(6, 8.4)))
	mustDraw(c.DrawRect(dsm.KindDoor, "d2", geom.Pt(14, 8), geom.Pt(16, 8.4)))
	mustDraw(c.DrawCircle(dsm.KindObstacle, "pillar", geom.Pt(10, 4), 0.5))
	if err := c.AssignTag(s1, "Adidas", "shop"); err != nil {
		t.Fatal(err)
	}
	if err := c.AssignTag(s2, "Nike", "shop"); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestBuildDSM(t *testing.T) {
	c := buildTestCanvas(t)
	m, err := Build("drawn-venue", BuildOptions{}, c)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if len(m.Entities) != 7 {
		t.Errorf("entities = %d", len(m.Entities))
	}
	if len(m.Regions) != 2 {
		t.Errorf("regions = %d", len(m.Regions))
	}
	if m.RegionByTag("Adidas") == nil || m.RegionByTag("Nike") == nil {
		t.Fatal("tagged regions missing")
	}
	// Topology works: Adidas → Nike through the two doors.
	d, ok := m.WalkingDistance(
		dsm.Location{P: geom.Pt(5, 12), Floor: 1},
		dsm.Location{P: geom.Pt(15, 12), Floor: 1},
	)
	if !ok {
		t.Fatal("drawn venue not connected")
	}
	if d <= 10 {
		t.Errorf("walking distance %v should exceed euclidean 10 (wall between)", d)
	}
	// The circle is polygonized into an obstacle entity.
	found := false
	for _, e := range m.Entities {
		if e.Kind == dsm.KindObstacle && e.Shape.Area() > 0.5 {
			found = true
		}
	}
	if !found {
		t.Error("polygonized circle obstacle missing")
	}
}

// testFloorplanImage paints a 200×120 plan at 0.25 m/px: a bottom corridor
// (y 4..40) and two rooms (y 44..116) split at x=100, with door gaps in the
// dividing wall (y 40..44).
func testFloorplanImage() *image.Gray {
	img := image.NewGray(image.Rect(0, 0, 200, 120))
	// Start all wall.
	for i := range img.Pix {
		img.Pix[i] = 0
	}
	fill := func(x0, y0, x1, y1 int, v uint8) {
		for y := y0; y < y1; y++ {
			for x := x0; x < x1; x++ {
				img.SetGray(x, y, color.Gray{Y: v})
			}
		}
	}
	fill(4, 4, 196, 40, 255)     // corridor
	fill(4, 44, 96, 116, 255)    // room 1 (x 4..96)
	fill(104, 44, 196, 116, 255) // room 2 (x 104..196)
	fill(40, 40, 52, 44, 128)    // door 1 in dividing wall
	fill(140, 40, 152, 44, 128)  // door 2
	return img
}

func TestTraceFloorplanImage(t *testing.T) {
	img := testFloorplanImage()
	canvas, err := Trace(img, 1, DefaultTraceOptions())
	if err != nil {
		t.Fatalf("Trace: %v", err)
	}
	var halls, rooms, doors int
	for _, s := range canvas.Shapes() {
		switch s.EntityKind {
		case dsm.KindHallway:
			halls++
		case dsm.KindRoom:
			rooms++
		case dsm.KindDoor:
			doors++
		}
	}
	if halls != 1 || rooms != 2 || doors != 2 {
		t.Fatalf("traced halls=%d rooms=%d doors=%d, want 1/2/2", halls, rooms, doors)
	}
	// Geometry sanity: the corridor is the largest shape, ≈ 48×9 m.
	var hall Shape
	for _, s := range canvas.Shapes() {
		if s.EntityKind == dsm.KindHallway {
			hall = s
		}
	}
	a := hall.Polygon.Area()
	if a < 380 || a > 450 {
		t.Errorf("corridor area = %v m², want ≈432", a)
	}
	// The traced canvas compiles into a connected DSM.
	m, err := Build("traced", BuildOptions{}, canvas)
	if err != nil {
		t.Fatalf("Build traced: %v", err)
	}
	d, ok := m.WalkingDistance(
		dsm.Location{P: geom.Pt(6, 20), Floor: 1},  // room 1
		dsm.Location{P: geom.Pt(40, 20), Floor: 1}, // room 2
	)
	if !ok {
		t.Fatal("traced venue not connected through doors")
	}
	if d <= 30 {
		t.Errorf("walking distance = %v, want > 30 (via corridor)", d)
	}
}

func TestTraceRejectsDegenerateImages(t *testing.T) {
	if _, err := Trace(image.NewGray(image.Rect(0, 0, 0, 0)), 1, DefaultTraceOptions()); err == nil {
		t.Error("empty image accepted")
	}
	allWall := image.NewGray(image.Rect(0, 0, 10, 10))
	if _, err := Trace(allWall, 1, DefaultTraceOptions()); err == nil {
		t.Error("all-wall image accepted")
	}
}

func TestTraceDropsSpecks(t *testing.T) {
	img := image.NewGray(image.Rect(0, 0, 100, 100))
	fill := func(x0, y0, x1, y1 int, v uint8) {
		for y := y0; y < y1; y++ {
			for x := x0; x < x1; x++ {
				img.SetGray(x, y, color.Gray{Y: v})
			}
		}
	}
	fill(4, 4, 96, 50, 255)   // big room
	fill(70, 70, 72, 72, 255) // 2×2 speck = 0.25 m², below MinRoomArea
	canvas, err := Trace(img, 1, DefaultTraceOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(canvas.Shapes()); got != 1 {
		t.Errorf("shapes = %d, want 1 (speck dropped)", got)
	}
}
