package geom

import "math"

// Segment is the closed line segment between A and B.
type Segment struct {
	A Point `json:"a"`
	B Point `json:"b"`
}

// Seg is shorthand for Segment{a, b}.
func Seg(a, b Point) Segment { return Segment{A: a, B: b} }

// ClosestPoint returns the point on s closest to p, and the parameter
// t in [0,1] such that the point equals A.Lerp(B, t).
func (s Segment) ClosestPoint(p Point) (Point, float64) {
	d := s.B.Sub(s.A)
	l2 := d.Dot(d)
	if l2 <= Eps {
		return s.A, 0
	}
	t := p.Sub(s.A).Dot(d) / l2
	t = math.Max(0, math.Min(1, t))
	return s.A.Lerp(s.B, t), t
}

// DistToPoint returns the distance from p to the segment.
func (s Segment) DistToPoint(p Point) float64 {
	q, _ := s.ClosestPoint(p)
	return p.Dist(q)
}

// onSegment reports whether point q, known to be collinear with s, lies on s.
func (s Segment) onSegment(q Point) bool {
	return q.X <= math.Max(s.A.X, s.B.X)+Eps && q.X >= math.Min(s.A.X, s.B.X)-Eps &&
		q.Y <= math.Max(s.A.Y, s.B.Y)+Eps && q.Y >= math.Min(s.A.Y, s.B.Y)-Eps
}

// Intersects reports whether s and t share at least one point, including
// touching endpoints and collinear overlap.
func (s Segment) Intersects(t Segment) bool {
	o1 := Orientation(s.A, s.B, t.A)
	o2 := Orientation(s.A, s.B, t.B)
	o3 := Orientation(t.A, t.B, s.A)
	o4 := Orientation(t.A, t.B, s.B)

	if o1 != o2 && o3 != o4 {
		return true
	}
	// Collinear special cases.
	if o1 == 0 && s.onSegment(t.A) {
		return true
	}
	if o2 == 0 && s.onSegment(t.B) {
		return true
	}
	if o3 == 0 && t.onSegment(s.A) {
		return true
	}
	if o4 == 0 && t.onSegment(s.B) {
		return true
	}
	return false
}

// DistToSegment returns the minimum distance between the two segments;
// zero when they intersect.
func (s Segment) DistToSegment(t Segment) float64 {
	if s.Intersects(t) {
		return 0
	}
	d := s.DistToPoint(t.A)
	if v := s.DistToPoint(t.B); v < d {
		d = v
	}
	if v := t.DistToPoint(s.A); v < d {
		d = v
	}
	if v := t.DistToPoint(s.B); v < d {
		d = v
	}
	return d
}
