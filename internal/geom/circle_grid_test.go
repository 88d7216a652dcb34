package geom

import (
	"math"
	"testing"
)

func TestCircleToPolygon(t *testing.T) {
	c := Circ(Pt(3, 3), 1)
	pg := c.ToPolygon(64)
	if len(pg.Vertices) != 64 {
		t.Fatalf("vertices = %d", len(pg.Vertices))
	}
	// Polygon area approaches pi*r^2 from below.
	if a, disk := pg.Area(), math.Pi*c.Radius*c.Radius; a > disk || a < 0.98*disk {
		t.Errorf("polygon area = %v vs circle %v", a, disk)
	}
	if !pg.Contains(Pt(3, 3)) {
		t.Error("polygonized circle should contain its center")
	}
	// Clamping of small n.
	if got := c.ToPolygon(2); len(got.Vertices) != 3 {
		t.Errorf("ToPolygon(2) vertices = %d, want 3", len(got.Vertices))
	}
}

func TestMinEnclosingCircle(t *testing.T) {
	if c := MinEnclosingCircle(nil); c.Radius != 0 {
		t.Errorf("empty MEC = %v", c)
	}
	pts := []Point{Pt(0, 0), Pt(4, 0), Pt(2, 3), Pt(2, 1)}
	c := MinEnclosingCircle(pts)
	for _, p := range pts {
		if c.Center.Dist(p) > c.Radius+Eps {
			t.Errorf("MEC does not contain %v (c=%v)", p, c)
		}
	}
	// Heuristic bound: the optimum for these points has radius about 2.17;
	// allow 15% slack.
	if c.Radius > 2.17*1.15 {
		t.Errorf("MEC radius %v too loose", c.Radius)
	}
}

func TestGridIndexQueryRect(t *testing.T) {
	g := NewGridIndex(2)
	for i := 0; i < 10; i++ {
		x := float64(i * 5)
		g.Insert(i, NewRect(Pt(x, 0), Pt(x+2, 2)))
	}
	ids := g.QueryRect(NewRect(Pt(4, 0), Pt(13, 2)))
	// Items 1 (5..7), 2 (10..12) intersect; item 0 (0..2) does not reach 4.
	want := map[int]bool{1: true, 2: true}
	if len(ids) != len(want) {
		t.Fatalf("QueryRect = %v", ids)
	}
	for _, id := range ids {
		if !want[id] {
			t.Errorf("unexpected id %d", id)
		}
	}
	if ids := g.QueryRect(EmptyRect()); ids != nil {
		t.Error("QueryRect(empty) should be nil")
	}
}

func TestGridIndexZeroCellSize(t *testing.T) {
	g := NewGridIndex(0) // falls back to 1m cells
	g.Insert(0, NewRect(Pt(0, 0), Pt(1, 1)))
	if ids := g.QueryRect(NewRect(Pt(0.5, 0.5), Pt(0.5, 0.5))); len(ids) != 1 {
		t.Errorf("fallback cell size broken: %v", ids)
	}
}
