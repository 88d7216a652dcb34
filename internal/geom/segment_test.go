package geom

import (
	"testing"
	"testing/quick"
)

func TestSegmentClosestPoint(t *testing.T) {
	s := Seg(Pt(0, 0), Pt(10, 0))
	cases := []struct {
		p, want Point
		t       float64
	}{
		{Pt(5, 3), Pt(5, 0), 0.5},
		{Pt(-4, 2), Pt(0, 0), 0},
		{Pt(14, -2), Pt(10, 0), 1},
	}
	for _, c := range cases {
		got, tp := s.ClosestPoint(c.p)
		if !got.Eq(c.want) || !almost(tp, c.t) {
			t.Errorf("ClosestPoint(%v) = %v,%v want %v,%v", c.p, got, tp, c.want, c.t)
		}
	}
}

func TestSegmentDegenerate(t *testing.T) {
	s := Seg(Pt(2, 2), Pt(2, 2))
	got, tp := s.ClosestPoint(Pt(5, 6))
	if !got.Eq(Pt(2, 2)) || tp != 0 {
		t.Errorf("degenerate ClosestPoint = %v,%v", got, tp)
	}
	if d := s.DistToPoint(Pt(5, 6)); !almost(d, 5) {
		t.Errorf("degenerate DistToPoint = %v", d)
	}
}

func TestSegmentIntersects(t *testing.T) {
	cases := []struct {
		a, b Segment
		want bool
	}{
		{Seg(Pt(0, 0), Pt(4, 4)), Seg(Pt(0, 4), Pt(4, 0)), true},   // proper cross
		{Seg(Pt(0, 0), Pt(4, 0)), Seg(Pt(4, 0), Pt(8, 0)), true},   // shared endpoint
		{Seg(Pt(0, 0), Pt(4, 0)), Seg(Pt(2, 0), Pt(6, 0)), true},   // collinear overlap
		{Seg(Pt(0, 0), Pt(4, 0)), Seg(Pt(5, 0), Pt(8, 0)), false},  // collinear disjoint
		{Seg(Pt(0, 0), Pt(4, 0)), Seg(Pt(0, 1), Pt(4, 1)), false},  // parallel
		{Seg(Pt(0, 0), Pt(1, 1)), Seg(Pt(2, 0), Pt(3, -5)), false}, // far apart
		{Seg(Pt(0, 0), Pt(4, 0)), Seg(Pt(2, -1), Pt(2, 1)), true},  // T cross
	}
	for i, c := range cases {
		if got := c.a.Intersects(c.b); got != c.want {
			t.Errorf("case %d: Intersects = %v, want %v", i, got, c.want)
		}
		if got := c.b.Intersects(c.a); got != c.want {
			t.Errorf("case %d (swapped): Intersects = %v, want %v", i, got, c.want)
		}
	}
}

func TestSegmentDistToSegment(t *testing.T) {
	if d := Seg(Pt(0, 0), Pt(4, 4)).DistToSegment(Seg(Pt(0, 4), Pt(4, 0))); !almost(d, 0) {
		t.Errorf("crossing segments dist = %v", d)
	}
	if d := Seg(Pt(0, 0), Pt(4, 0)).DistToSegment(Seg(Pt(0, 3), Pt(4, 3))); !almost(d, 3) {
		t.Errorf("parallel segments dist = %v", d)
	}
}

func TestSegmentPropertyClosestPointIsNearest(t *testing.T) {
	// The closest point must be at least as near as both endpoints and the
	// midpoint.
	f := func(ax, ay, bx, by, px, py float64) bool {
		s := Seg(Pt(clampF(ax), clampF(ay)), Pt(clampF(bx), clampF(by)))
		p := Pt(clampF(px), clampF(py))
		q, _ := s.ClosestPoint(p)
		d := p.Dist(q)
		return d <= p.Dist(s.A)+1e-6 && d <= p.Dist(s.B)+1e-6 && d <= p.Dist(s.A.Lerp(s.B, 0.5))+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
