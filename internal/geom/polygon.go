package geom

import (
	"errors"
	"math"
)

// Polygon is a simple polygon given by its vertices in order (either winding).
// The boundary closes implicitly from the last vertex back to the first.
type Polygon struct {
	Vertices []Point `json:"vertices"`
}

// Poly builds a polygon from the given vertices.
func Poly(pts ...Point) Polygon { return Polygon{Vertices: pts} }

// ErrDegeneratePolygon is returned by Validate for polygons with fewer than
// three vertices or (near-)zero area.
var ErrDegeneratePolygon = errors.New("geom: degenerate polygon")

// Validate checks that the polygon has at least three vertices and non-zero
// area.
func (pg Polygon) Validate() error {
	if len(pg.Vertices) < 3 || math.Abs(pg.SignedArea()) <= Eps {
		return ErrDegeneratePolygon
	}
	return nil
}

// SignedArea returns the area with positive sign for counter-clockwise
// winding (shoelace formula).
func (pg Polygon) SignedArea() float64 {
	n := len(pg.Vertices)
	if n < 3 {
		return 0
	}
	var s float64
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		s += pg.Vertices[i].Cross(pg.Vertices[j])
	}
	return s / 2
}

// Area returns the absolute polygon area.
func (pg Polygon) Area() float64 { return math.Abs(pg.SignedArea()) }

// Perimeter returns the total boundary length.
func (pg Polygon) Perimeter() float64 {
	n := len(pg.Vertices)
	if n < 2 {
		return 0
	}
	var s float64
	for i := 0; i < n; i++ {
		s += pg.Vertices[i].Dist(pg.Vertices[(i+1)%n])
	}
	return s
}

// Centroid returns the area centroid of the polygon. For degenerate polygons
// it falls back to the vertex mean.
func (pg Polygon) Centroid() Point {
	n := len(pg.Vertices)
	a := pg.SignedArea()
	if n < 3 || math.Abs(a) <= Eps {
		return Centroid(pg.Vertices)
	}
	var cx, cy float64
	for i := 0; i < n; i++ {
		p, q := pg.Vertices[i], pg.Vertices[(i+1)%n]
		w := p.Cross(q)
		cx += (p.X + q.X) * w
		cy += (p.Y + q.Y) * w
	}
	k := 1 / (6 * a)
	return Point{cx * k, cy * k}
}

// Contains reports whether p is inside the polygon or on its boundary, using
// the even-odd ray casting rule with an explicit boundary check. The ray
// cast runs first: it is a multiply per crossing edge, where the boundary
// test is a distance per edge, and most points it answers are interior.
func (pg Polygon) Contains(p Point) bool {
	n := len(pg.Vertices)
	if n < 3 {
		return false
	}
	inside := false
	for i, j := 0, n-1; i < n; j, i = i, i+1 {
		vi, vj := pg.Vertices[i], pg.Vertices[j]
		if (vi.Y > p.Y) != (vj.Y > p.Y) {
			x := vj.X + (p.Y-vj.Y)/(vi.Y-vj.Y)*(vi.X-vj.X)
			if p.X < x {
				inside = !inside
			}
		}
	}
	// Boundary counts as inside: rooms own their walls for matching purposes.
	return inside || pg.OnBoundary(p)
}

// OnBoundary reports whether p lies on the polygon boundary within Eps.
func (pg Polygon) OnBoundary(p Point) bool {
	n := len(pg.Vertices)
	for i := 0; i < n; i++ {
		if Seg(pg.Vertices[i], pg.Vertices[(i+1)%n]).DistToPoint(p) <= Eps {
			return true
		}
	}
	return false
}

// Edges returns the boundary segments in vertex order.
func (pg Polygon) Edges() []Segment {
	n := len(pg.Vertices)
	if n < 2 {
		return nil
	}
	edges := make([]Segment, 0, n)
	for i := 0; i < n; i++ {
		edges = append(edges, Seg(pg.Vertices[i], pg.Vertices[(i+1)%n]))
	}
	return edges
}

// Bounds returns the axis-aligned bounding rectangle of the polygon.
func (pg Polygon) Bounds() Rect { return BoundsOf(pg.Vertices) }

// DistToPoint returns the distance from p to the polygon: zero when p is
// inside or on the boundary, otherwise the distance to the nearest edge.
// It iterates the edges in place rather than materializing Edges(): the
// cleaning hot path calls it for every snap candidate.
//
//trips:zeroalloc
func (pg Polygon) DistToPoint(p Point) float64 {
	if pg.Contains(p) {
		return 0
	}
	d := math.Inf(1)
	n := len(pg.Vertices)
	if n < 2 {
		return d
	}
	for i := 0; i < n; i++ {
		e := Seg(pg.Vertices[i], pg.Vertices[(i+1)%n])
		if v := e.DistToPoint(p); v < d {
			d = v
		}
	}
	return d
}

// ClosestBoundaryPoint returns the boundary point nearest to p.
//
//trips:zeroalloc
func (pg Polygon) ClosestBoundaryPoint(p Point) Point {
	best := p
	d := math.Inf(1)
	n := len(pg.Vertices)
	if n < 2 {
		return best
	}
	for i := 0; i < n; i++ {
		e := Seg(pg.Vertices[i], pg.Vertices[(i+1)%n])
		q, _ := e.ClosestPoint(p)
		if v := p.Dist(q); v < d {
			d, best = v, q
		}
	}
	return best
}

// IntersectsSegment reports whether s crosses or touches the polygon
// boundary, or lies entirely inside it.
func (pg Polygon) IntersectsSegment(s Segment) bool {
	n := len(pg.Vertices)
	for i := 0; i < n && n >= 2; i++ {
		if Seg(pg.Vertices[i], pg.Vertices[(i+1)%n]).Intersects(s) {
			return true
		}
	}
	return pg.Contains(s.A) // fully interior segment
}

// IsConvex reports whether the polygon is convex (collinear runs allowed).
func (pg Polygon) IsConvex() bool {
	n := len(pg.Vertices)
	if n < 4 {
		return n == 3
	}
	sign := 0
	for i := 0; i < n; i++ {
		o := Orientation(pg.Vertices[i], pg.Vertices[(i+1)%n], pg.Vertices[(i+2)%n])
		if o == 0 {
			continue
		}
		if sign == 0 {
			sign = o
		} else if o != sign {
			return false
		}
	}
	return true
}

// Translate returns a copy of the polygon shifted by d.
func (pg Polygon) Translate(d Point) Polygon {
	out := Polygon{Vertices: make([]Point, len(pg.Vertices))}
	for i, v := range pg.Vertices {
		out.Vertices[i] = v.Add(d)
	}
	return out
}

// SamplePoints returns n points approximately evenly spread inside the
// polygon by scanning its bounding box on a grid and keeping interior points.
// It is used for display-point selection and interpolation candidates. If the
// polygon is degenerate the centroid is repeated.
func (pg Polygon) SamplePoints(n int) []Point {
	if n <= 0 {
		return nil
	}
	b := pg.Bounds()
	if b.IsEmpty() || b.Area() <= Eps {
		out := make([]Point, n)
		c := pg.Centroid()
		for i := range out {
			out[i] = c
		}
		return out
	}
	// Grid resolution chosen so the box yields roughly 4n candidates.
	side := math.Sqrt(b.Area() / float64(4*n))
	if side <= Eps {
		side = 0.1
	}
	var out []Point
	for y := b.Min.Y + side/2; y < b.Max.Y; y += side {
		for x := b.Min.X + side/2; x < b.Max.X; x += side {
			p := Pt(x, y)
			if pg.Contains(p) {
				out = append(out, p)
			}
		}
	}
	if len(out) == 0 {
		out = append(out, pg.Centroid())
	}
	for len(out) < n {
		out = append(out, out[len(out)%len(out)])
	}
	// Down-sample evenly when over-full.
	if len(out) > n {
		step := float64(len(out)) / float64(n)
		sel := make([]Point, 0, n)
		for i := 0; i < n; i++ {
			sel = append(sel, out[int(float64(i)*step)])
		}
		out = sel
	}
	return out
}
