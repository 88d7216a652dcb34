package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPointArithmetic(t *testing.T) {
	p, q := Pt(1, 2), Pt(3, -4)
	if got := p.Add(q); got != Pt(4, -2) {
		t.Errorf("Add = %v", got)
	}
	if got := p.Sub(q); got != Pt(-2, 6) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Scale(2); got != Pt(2, 4) {
		t.Errorf("Scale = %v", got)
	}
	if got := p.Dot(q); !almost(got, 3-8) {
		t.Errorf("Dot = %v", got)
	}
	if got := p.Cross(q); !almost(got, -4-6) {
		t.Errorf("Cross = %v", got)
	}
}

func TestPointDist(t *testing.T) {
	if d := Pt(0, 0).Dist(Pt(3, 4)); !almost(d, 5) {
		t.Errorf("Dist = %v, want 5", d)
	}
	if d := Pt(0, 0).Dist2(Pt(3, 4)); !almost(d, 25) {
		t.Errorf("Dist2 = %v, want 25", d)
	}
	if !Pt(1, 1).Eq(Pt(1+1e-12, 1-1e-12)) {
		t.Error("Eq should tolerate sub-eps noise")
	}
	if Pt(1, 1).Eq(Pt(1.001, 1)) {
		t.Error("Eq should reject mm-scale difference")
	}
}

func TestLerp(t *testing.T) {
	a, b := Pt(0, 0), Pt(10, 20)
	if got := a.Lerp(b, 0); !got.Eq(a) {
		t.Errorf("Lerp(0) = %v", got)
	}
	if got := a.Lerp(b, 1); !got.Eq(b) {
		t.Errorf("Lerp(1) = %v", got)
	}
	if got := a.Lerp(b, 0.5); !got.Eq(Pt(5, 10)) {
		t.Errorf("Lerp(0.5) = %v", got)
	}
}

func TestCentroid(t *testing.T) {
	if got := Centroid(nil); got != (Point{}) {
		t.Errorf("empty centroid = %v", got)
	}
	got := Centroid([]Point{Pt(0, 0), Pt(2, 0), Pt(2, 2), Pt(0, 2)})
	if !got.Eq(Pt(1, 1)) {
		t.Errorf("centroid = %v, want (1,1)", got)
	}
}

func TestOrientation(t *testing.T) {
	if o := Orientation(Pt(0, 0), Pt(1, 0), Pt(1, 1)); o != 1 {
		t.Errorf("ccw orientation = %d", o)
	}
	if o := Orientation(Pt(0, 0), Pt(1, 0), Pt(1, -1)); o != -1 {
		t.Errorf("cw orientation = %d", o)
	}
	if o := Orientation(Pt(0, 0), Pt(1, 0), Pt(2, 0)); o != 0 {
		t.Errorf("collinear orientation = %d", o)
	}
}

func TestTurnAngle(t *testing.T) {
	if a := TurnAngle(Pt(0, 0), Pt(1, 0), Pt(2, 0)); !almost(a, 0) {
		t.Errorf("straight turn = %v", a)
	}
	if a := TurnAngle(Pt(0, 0), Pt(1, 0), Pt(1, 1)); !almost(a, math.Pi/2) {
		t.Errorf("right-angle turn = %v", a)
	}
	if a := TurnAngle(Pt(0, 0), Pt(0, 0), Pt(1, 1)); a != 0 {
		t.Errorf("degenerate turn = %v", a)
	}
}

func TestPointPropertyDistSymmetric(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		a, b := Pt(clampF(ax), clampF(ay)), Pt(clampF(bx), clampF(by))
		return almost(a.Dist(b), b.Dist(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPointPropertyTriangleInequality(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		a := Pt(clampF(ax), clampF(ay))
		b := Pt(clampF(bx), clampF(by))
		c := Pt(clampF(cx), clampF(cy))
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// clampF maps arbitrary float64 quick-check inputs into a sane coordinate
// range so that NaN/Inf and astronomically large values do not dominate.
func clampF(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(v, 1000)
}
