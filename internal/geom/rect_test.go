package geom

import (
	"testing"
	"testing/quick"
)

func TestRectBasics(t *testing.T) {
	r := NewRect(Pt(4, 1), Pt(0, 5))
	if !r.Min.Eq(Pt(0, 1)) || !r.Max.Eq(Pt(4, 5)) {
		t.Errorf("NewRect normalization failed: %v", r)
	}
	if !almost(r.Width(), 4) || !almost(r.Height(), 4) {
		t.Errorf("dims: w=%v h=%v", r.Width(), r.Height())
	}
	if !r.Center().Eq(Pt(2, 3)) {
		t.Errorf("center = %v", r.Center())
	}
}

func TestRectEmpty(t *testing.T) {
	e := EmptyRect()
	if !e.IsEmpty() {
		t.Error("EmptyRect not empty")
	}
	if e.Width() != 0 || e.Height() != 0 {
		t.Error("empty rect should have zero extent")
	}
	r := NewRect(Pt(0, 0), Pt(1, 1))
	if got := e.Union(r); got != r {
		t.Errorf("empty union identity failed: %v", got)
	}
	if got := r.Union(e); got != r {
		t.Errorf("union with empty failed: %v", got)
	}
	if e.Intersects(r) {
		t.Error("empty rect should intersect nothing")
	}
}

func TestRectContains(t *testing.T) {
	r := NewRect(Pt(0, 0), Pt(4, 4))
	if !r.Contains(Pt(2, 2)) || !r.Contains(Pt(0, 0)) || !r.Contains(Pt(4, 4)) {
		t.Error("Contains failed for interior/corner")
	}
	if r.Contains(Pt(5, 2)) || r.Contains(Pt(2, -1)) {
		t.Error("Contains failed for exterior")
	}
}

func TestRectIntersects(t *testing.T) {
	a := NewRect(Pt(0, 0), Pt(4, 4))
	if !a.Intersects(NewRect(Pt(3, 3), Pt(6, 6))) {
		t.Error("overlapping rects should intersect")
	}
	if !a.Intersects(NewRect(Pt(4, 0), Pt(8, 4))) {
		t.Error("touching rects should intersect")
	}
	if a.Intersects(NewRect(Pt(5, 5), Pt(6, 6))) {
		t.Error("disjoint rects should not intersect")
	}
}

func TestRectExpandAndExtend(t *testing.T) {
	r := NewRect(Pt(1, 1), Pt(3, 3)).Expand(1)
	if !r.Min.Eq(Pt(0, 0)) || !r.Max.Eq(Pt(4, 4)) {
		t.Errorf("Expand = %v", r)
	}
	r = r.ExtendPoint(Pt(10, 2))
	if !almost(r.Max.X, 10) {
		t.Errorf("ExtendPoint = %v", r)
	}
}

func TestRectVerticesAndPolygon(t *testing.T) {
	r := NewRect(Pt(0, 0), Pt(2, 1))
	v := r.Vertices()
	if len(v) != 4 {
		t.Fatalf("vertices = %d", len(v))
	}
	pg := r.ToPolygon()
	if !almost(pg.Area(), 2) {
		t.Errorf("polygon area = %v", pg.Area())
	}
	if pg.SignedArea() <= 0 {
		t.Error("rect polygon should wind counter-clockwise")
	}
}

func TestBoundsOf(t *testing.T) {
	if !BoundsOf(nil).IsEmpty() {
		t.Error("BoundsOf(nil) should be empty")
	}
	b := BoundsOf([]Point{Pt(1, 5), Pt(-2, 3), Pt(4, -1)})
	if !b.Min.Eq(Pt(-2, -1)) || !b.Max.Eq(Pt(4, 5)) {
		t.Errorf("BoundsOf = %v", b)
	}
}

func TestRectPropertyUnionContainsBoth(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy, dx, dy float64) bool {
		r := NewRect(Pt(clampF(ax), clampF(ay)), Pt(clampF(bx), clampF(by)))
		s := NewRect(Pt(clampF(cx), clampF(cy)), Pt(clampF(dx), clampF(dy)))
		u := r.Union(s)
		return u.Contains(r.Min) && u.Contains(r.Max) && u.Contains(s.Min) && u.Contains(s.Max)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
