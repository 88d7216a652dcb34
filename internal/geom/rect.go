package geom

import "math"

// Rect is an axis-aligned rectangle defined by its min and max corners.
// A Rect with Min components greater than Max components is empty.
type Rect struct {
	Min Point `json:"min"`
	Max Point `json:"max"`
}

// NewRect returns the rectangle spanning the two corner points in any order.
func NewRect(a, b Point) Rect {
	return Rect{
		Min: Point{math.Min(a.X, b.X), math.Min(a.Y, b.Y)},
		Max: Point{math.Max(a.X, b.X), math.Max(a.Y, b.Y)},
	}
}

// EmptyRect returns a rectangle that contains nothing and acts as the
// identity for Union.
func EmptyRect() Rect {
	inf := math.Inf(1)
	return Rect{Min: Point{inf, inf}, Max: Point{-inf, -inf}}
}

// IsEmpty reports whether the rectangle contains no points.
func (r Rect) IsEmpty() bool { return r.Min.X > r.Max.X || r.Min.Y > r.Max.Y }

// Width returns the X extent; zero for empty rectangles.
func (r Rect) Width() float64 {
	if r.IsEmpty() {
		return 0
	}
	return r.Max.X - r.Min.X
}

// Height returns the Y extent; zero for empty rectangles.
func (r Rect) Height() float64 {
	if r.IsEmpty() {
		return 0
	}
	return r.Max.Y - r.Min.Y
}

// Center returns the rectangle center point.
func (r Rect) Center() Point { return Midpoint(r.Min, r.Max) }

// Contains reports whether p lies inside or on the boundary of r.
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X-Eps && p.X <= r.Max.X+Eps &&
		p.Y >= r.Min.Y-Eps && p.Y <= r.Max.Y+Eps
}

// Intersects reports whether r and s share any point.
func (r Rect) Intersects(s Rect) bool {
	if r.IsEmpty() || s.IsEmpty() {
		return false
	}
	return r.Min.X <= s.Max.X+Eps && s.Min.X <= r.Max.X+Eps &&
		r.Min.Y <= s.Max.Y+Eps && s.Min.Y <= r.Max.Y+Eps
}

// Dist2 returns the squared distance from p to r: zero when r contains p
// (without Contains' Eps margin), +Inf when r is empty. A shape is never
// nearer than its bounding box, so nearest-shape searches prune with it.
//
//trips:zeroalloc
func (r Rect) Dist2(p Point) float64 {
	var dx, dy float64
	if p.X < r.Min.X {
		dx = r.Min.X - p.X
	} else if p.X > r.Max.X {
		dx = p.X - r.Max.X
	}
	if p.Y < r.Min.Y {
		dy = r.Min.Y - p.Y
	} else if p.Y > r.Max.Y {
		dy = p.Y - r.Max.Y
	}
	return dx*dx + dy*dy
}

// Union returns the smallest rectangle containing both r and s.
func (r Rect) Union(s Rect) Rect {
	if r.IsEmpty() {
		return s
	}
	if s.IsEmpty() {
		return r
	}
	return Rect{
		Min: Point{math.Min(r.Min.X, s.Min.X), math.Min(r.Min.Y, s.Min.Y)},
		Max: Point{math.Max(r.Max.X, s.Max.X), math.Max(r.Max.Y, s.Max.Y)},
	}
}

// Expand returns r grown by d on every side. A negative d shrinks it.
func (r Rect) Expand(d float64) Rect {
	return Rect{
		Min: Point{r.Min.X - d, r.Min.Y - d},
		Max: Point{r.Max.X + d, r.Max.Y + d},
	}
}

// ExtendPoint returns the smallest rectangle containing r and p.
func (r Rect) ExtendPoint(p Point) Rect {
	return r.Union(Rect{Min: p, Max: p})
}

// Vertices returns the four corners in counter-clockwise order starting at
// Min.
func (r Rect) Vertices() []Point {
	return []Point{
		r.Min,
		{r.Max.X, r.Min.Y},
		r.Max,
		{r.Min.X, r.Max.Y},
	}
}

// ToPolygon converts the rectangle to a Polygon with the same extent.
func (r Rect) ToPolygon() Polygon { return Polygon{Vertices: r.Vertices()} }

// BoundsOf returns the bounding rectangle of pts; empty for no points.
func BoundsOf(pts []Point) Rect {
	r := EmptyRect()
	for _, p := range pts {
		r = r.ExtendPoint(p)
	}
	return r
}
