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
	if len(pg.Vertices) < 3 {
		return false
	}
	// Boundary counts as inside: rooms own their walls for matching purposes.
	return pg.rayInside(p) || pg.OnBoundary(p)
}

// rayInside is the even-odd ray cast alone, without the boundary check.
// It is written to fit the compiler's inlining budget: Contains runs for
// every Locate, and a call here costs Locate about a tenth.
//
//trips:zeroalloc
func (pg Polygon) rayInside(p Point) bool {
	vs := pg.Vertices
	inside := false
	j := len(vs) - 1
	for i, vi := range vs {
		vj := vs[j]
		if (vi.Y > p.Y) != (vj.Y > p.Y) && p.X < vj.X+(p.Y-vj.Y)/(vi.Y-vj.Y)*(vi.X-vj.X) {
			inside = !inside
		}
		j = i
	}
	return inside
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
// It is Contains and the edge distances in one pass over the edges: the
// cleaning hot path calls it for every snap candidate.
//
//trips:zeroalloc
func (pg Polygon) DistToPoint(p Point) float64 {
	n := len(pg.Vertices)
	if n >= 3 && pg.rayInside(p) {
		return 0
	}
	d := math.Inf(1)
	if n < 2 {
		return d
	}
	for i := 0; i < n; i++ {
		e := Seg(pg.Vertices[i], pg.Vertices[(i+1)%n])
		if v := e.DistToPoint(p); v < d {
			d = v
		}
	}
	// An edge within Eps is exactly OnBoundary, which Contains counts in.
	if n >= 3 && d <= Eps {
		return 0
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
