package geom

import "math"

// Circle is a disk with a center and radius, used by the Space Modeler
// drawing tool (e.g. kiosks, pillars) and by covering-range features.
type Circle struct {
	Center Point   `json:"center"`
	Radius float64 `json:"radius"`
}

// Circ is shorthand for Circle{c, r}.
func Circ(c Point, r float64) Circle { return Circle{Center: c, Radius: r} }

// ToPolygon approximates the circle by a regular n-gon (n >= 3). The Space
// Modeler converts drawn circles to polygons when saving the DSM so that all
// entities share one geometry representation.
func (c Circle) ToPolygon(n int) Polygon {
	if n < 3 {
		n = 3
	}
	pts := make([]Point, 0, n)
	for i := 0; i < n; i++ {
		a := 2 * math.Pi * float64(i) / float64(n)
		pts = append(pts, Point{
			X: c.Center.X + c.Radius*math.Cos(a),
			Y: c.Center.Y + c.Radius*math.Sin(a),
		})
	}
	return Polygon{Vertices: pts}
}

// MinEnclosingCircle returns a small circle covering all pts. It uses the
// bounding-box center heuristic followed by a radius fix-up, which is exact
// enough for the covering-range movement feature (a few percent above the
// optimum in the worst case, deterministic, O(n)).
func MinEnclosingCircle(pts []Point) Circle {
	if len(pts) == 0 {
		return Circle{}
	}
	c := BoundsOf(pts).Center()
	var r float64
	for _, p := range pts {
		if d := c.Dist(p); d > r {
			r = d
		}
	}
	// One refinement pass: move toward the farthest point to shrink radius.
	for iter := 0; iter < 16; iter++ {
		var far Point
		r = 0
		for _, p := range pts {
			if d := c.Dist(p); d > r {
				r, far = d, p
			}
		}
		c = c.Lerp(far, 0.05)
	}
	for _, p := range pts {
		if d := c.Dist(p); d > r {
			r = d
		}
	}
	return Circle{Center: c, Radius: r}
}
