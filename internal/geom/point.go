// Package geom provides the 2-D geometry kernel used throughout TRIPS.
//
// The indoor space is modeled per floor in a planar metric coordinate system
// (meters). The kernel supplies the primitives the Digital Space Model and
// the translation framework need: points, segments, polylines, polygons and
// circles, together with distance computations, point-in-polygon tests,
// intersection tests and a uniform grid index.
//
// All types use float64 coordinates. Predicates use an epsilon of Eps to
// absorb floating-point noise; the scale of indoor coordinates (tens to a few
// hundred meters) makes 1e-9 a safe slack.
package geom

import (
	"fmt"
	"math"
)

// Eps is the tolerance used by geometric predicates.
const Eps = 1e-9

// Point is a location in the plane, in meters.
type Point struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// Add returns p + q component-wise.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p - q component-wise.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by k.
func (p Point) Scale(k float64) Point { return Point{p.X * k, p.Y * k} }

// Dot returns the dot product p·q.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y }

// Cross returns the z-component of the cross product p×q.
func (p Point) Cross(q Point) float64 { return p.X*q.Y - p.Y*q.X }

// Norm returns the Euclidean length of the vector p.
func (p Point) Norm() float64 { return math.Hypot(p.X, p.Y) }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 { return math.Hypot(p.X-q.X, p.Y-q.Y) }

// Dist2 returns the squared Euclidean distance between p and q. It avoids the
// square root and is preferred in comparisons and accumulation loops.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Eq reports whether p and q coincide within Eps.
func (p Point) Eq(q Point) bool {
	return math.Abs(p.X-q.X) <= Eps && math.Abs(p.Y-q.Y) <= Eps
}

// Lerp returns the point at parameter t on the segment p→q, with t in [0,1]
// mapping to [p,q]. Values outside [0,1] extrapolate.
func (p Point) Lerp(q Point, t float64) Point {
	return Point{p.X + (q.X-p.X)*t, p.Y + (q.Y-p.Y)*t}
}

// String formats the point with centimeter precision.
func (p Point) String() string { return fmt.Sprintf("(%.2f, %.2f)", p.X, p.Y) }

// Midpoint returns the midpoint of p and q.
func Midpoint(p, q Point) Point { return Point{(p.X + q.X) / 2, (p.Y + q.Y) / 2} }

// Centroid returns the arithmetic mean of pts. It returns the zero Point for
// an empty slice.
func Centroid(pts []Point) Point {
	if len(pts) == 0 {
		return Point{}
	}
	var c Point
	for _, p := range pts {
		c.X += p.X
		c.Y += p.Y
	}
	n := float64(len(pts))
	return Point{c.X / n, c.Y / n}
}

// Orientation classifies the turn a→b→c: +1 counter-clockwise, -1 clockwise,
// 0 collinear (within Eps).
func Orientation(a, b, c Point) int {
	v := b.Sub(a).Cross(c.Sub(a))
	switch {
	case v > Eps:
		return 1
	case v < -Eps:
		return -1
	default:
		return 0
	}
}

// TurnAngle returns the absolute change of heading, in radians within
// [0, pi], when moving a→b→c. Degenerate legs (zero length) yield 0.
func TurnAngle(a, b, c Point) float64 {
	u, v := b.Sub(a), c.Sub(b)
	nu, nv := u.Norm(), v.Norm()
	if nu <= Eps || nv <= Eps {
		return 0
	}
	cos := u.Dot(v) / (nu * nv)
	cos = math.Max(-1, math.Min(1, cos))
	return math.Acos(cos)
}
