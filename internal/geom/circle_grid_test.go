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

// candidates returns the ids PointCandidates offers for p that Bounds
// confirms, as Locate filters them.
func candidates(g *GridIndex, p Point) []int {
	var out []int
	for _, id := range g.PointCandidates(p) {
		if g.Bounds(id).Contains(p) {
			out = append(out, id)
		}
	}
	return out
}

func TestGridIndexPointCandidates(t *testing.T) {
	g := NewGridIndex(2)
	for i := 0; i < 10; i++ {
		x := float64(i * 5)
		g.Insert(i, NewRect(Pt(x, 0), Pt(x+2, 2)))
	}
	// Item 1 spans 5..7; 6 lies in no other box, 3.5 in none at all.
	if ids := candidates(g, Pt(6, 1)); len(ids) != 1 || ids[0] != 1 {
		t.Errorf("candidates(6,1) = %v, want [1]", ids)
	}
	if ids := candidates(g, Pt(3.5, 1)); len(ids) != 0 {
		t.Errorf("candidates(3.5,1) = %v, want none", ids)
	}
	if b := g.Bounds(2); b != NewRect(Pt(10, 0), Pt(12, 2)) {
		t.Errorf("Bounds(2) = %v", b)
	}
	// Item 3's box (15..17) spans cells 7 and 8: both offer it.
	for _, p := range []Point{Pt(15.5, 1), Pt(16.5, 1)} {
		if ids := candidates(g, p); len(ids) != 1 || ids[0] != 3 {
			t.Errorf("candidates(%v) = %v, want [3]", p, ids)
		}
	}
}

func TestGridIndexZeroCellSize(t *testing.T) {
	g := NewGridIndex(0) // falls back to 1m cells
	g.Insert(0, NewRect(Pt(0, 0), Pt(1, 1)))
	if ids := candidates(g, Pt(0.5, 0.5)); len(ids) != 1 {
		t.Errorf("fallback cell size broken: %v", ids)
	}
}

func TestRectDist2(t *testing.T) {
	r := NewRect(Pt(0, 0), Pt(4, 2))
	for _, c := range []struct {
		p    Point
		want float64
	}{
		{Pt(1, 1), 0}, {Pt(4, 2), 0}, {Pt(-3, 1), 9}, {Pt(2, 5), 9},
		{Pt(7, 6), 9 + 16}, {Pt(-1, -1), 2},
	} {
		if got := r.Dist2(c.p); got != c.want {
			t.Errorf("Dist2(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := EmptyRect().Dist2(Pt(0, 0)); !math.IsInf(got, 1) {
		t.Errorf("empty Dist2 = %v, want +Inf", got)
	}
}
