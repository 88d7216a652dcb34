package geom

import (
	"math"
	"testing"
	"testing/quick"
)

// poly builds a polygon from the given vertices.
func poly(pts ...Point) Polygon { return Polygon{Vertices: pts} }

func unitSquare() Polygon { return poly(Pt(0, 0), Pt(4, 0), Pt(4, 4), Pt(0, 4)) }

// lShape is a concave polygon:
//
//	(0,4)──(2,4)
//	  │      │
//	  │      (2,2)──(4,2)
//	  │               │
//	(0,0)──────────(4,0)
func lShape() Polygon {
	return poly(Pt(0, 0), Pt(4, 0), Pt(4, 2), Pt(2, 2), Pt(2, 4), Pt(0, 4))
}

func TestPolygonArea(t *testing.T) {
	if a := unitSquare().Area(); !almost(a, 16) {
		t.Errorf("square area = %v", a)
	}
	if a := lShape().Area(); !almost(a, 12) {
		t.Errorf("L area = %v", a)
	}
	// Winding direction must not affect the absolute area.
	rev := poly(Pt(0, 4), Pt(4, 4), Pt(4, 0), Pt(0, 0))
	if a := rev.Area(); !almost(a, 16) {
		t.Errorf("cw square area = %v", a)
	}
	if sa := rev.SignedArea(); sa >= 0 {
		t.Errorf("cw signed area = %v, want negative", sa)
	}
}

func TestPolygonValidate(t *testing.T) {
	if err := unitSquare().Validate(); err != nil {
		t.Errorf("valid polygon rejected: %v", err)
	}
	if err := poly(Pt(0, 0), Pt(1, 1)).Validate(); err == nil {
		t.Error("two-vertex polygon accepted")
	}
	if err := poly(Pt(0, 0), Pt(1, 0), Pt(2, 0)).Validate(); err == nil {
		t.Error("zero-area polygon accepted")
	}
}

func TestPolygonCentroid(t *testing.T) {
	if c := unitSquare().Centroid(); !c.Eq(Pt(2, 2)) {
		t.Errorf("square centroid = %v", c)
	}
	// The L centroid is pulled toward the fat lower arm.
	c := lShape().Centroid()
	if !(c.X > 1 && c.X < 3 && c.Y > 1 && c.Y < 2.5) {
		t.Errorf("L centroid = %v outside plausible band", c)
	}
}

func TestPolygonContains(t *testing.T) {
	sq := unitSquare()
	inside := []Point{Pt(2, 2), Pt(0.1, 0.1), Pt(3.9, 3.9)}
	for _, p := range inside {
		if !sq.Contains(p) {
			t.Errorf("square should contain %v", p)
		}
	}
	outside := []Point{Pt(-1, 2), Pt(5, 2), Pt(2, -0.5), Pt(2, 4.5)}
	for _, p := range outside {
		if sq.Contains(p) {
			t.Errorf("square should not contain %v", p)
		}
	}
	// Boundary points count as inside.
	for _, p := range []Point{Pt(0, 0), Pt(2, 0), Pt(4, 4), Pt(0, 2)} {
		if !sq.Contains(p) {
			t.Errorf("boundary point %v should count as inside", p)
		}
	}
	// Concave case: the notch is outside.
	l := lShape()
	if l.Contains(Pt(3, 3)) {
		t.Error("L notch point (3,3) should be outside")
	}
	if !l.Contains(Pt(1, 3)) {
		t.Error("L arm point (1,3) should be inside")
	}
	if !l.Contains(Pt(3, 1)) {
		t.Error("L arm point (3,1) should be inside")
	}
}

func TestPolygonDistToPoint(t *testing.T) {
	sq := unitSquare()
	if d := sq.DistToPoint(Pt(2, 2)); d != 0 {
		t.Errorf("interior dist = %v", d)
	}
	if d := sq.DistToPoint(Pt(7, 4)); !almost(d, 3) {
		t.Errorf("exterior dist = %v, want 3", d)
	}
}

func TestPolygonClosestBoundaryPoint(t *testing.T) {
	sq := unitSquare()
	got := sq.ClosestBoundaryPoint(Pt(2, 10))
	if !got.Eq(Pt(2, 4)) {
		t.Errorf("ClosestBoundaryPoint = %v, want (2,4)", got)
	}
}

func TestPolygonEdges(t *testing.T) {
	edges := unitSquare().Edges()
	if len(edges) != 4 {
		t.Fatalf("edges = %d, want 4", len(edges))
	}
	if !edges[3].B.Eq(Pt(0, 0)) {
		t.Error("polygon edges should close the ring")
	}
}

func TestPolygonPropertyCentroidInsideConvex(t *testing.T) {
	// For any rectangle (always convex) the centroid must lie inside.
	f := func(x, y, w, h float64) bool {
		w, h = math.Abs(clampF(w))+1, math.Abs(clampF(h))+1
		x, y = clampF(x), clampF(y)
		pg := NewRect(Pt(x, y), Pt(x+w, y+h)).ToPolygon()
		return pg.Contains(pg.Centroid())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPolygonPropertyContainsMatchesDist(t *testing.T) {
	// DistToPoint is zero iff Contains is true, for the concave L shape.
	l := lShape()
	f := func(px, py float64) bool {
		p := Pt(math.Mod(math.Abs(clampF(px)), 6)-1, math.Mod(math.Abs(clampF(py)), 6)-1)
		in := l.Contains(p)
		d := l.DistToPoint(p)
		if in {
			return d == 0
		}
		return d > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
