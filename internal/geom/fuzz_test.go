package geom

import (
	"math"
	"testing"
)

// containsBoundaryFirst is Contains as it was first written: the boundary
// test, then the even-odd ray cast. Contains now casts the ray first and
// tests the boundary only for points the ray puts outside; the two must
// agree on every input, and keep agreeing if OnBoundary's distance test is
// ever rewritten.
func containsBoundaryFirst(pg Polygon, p Point) bool {
	n := len(pg.Vertices)
	if n < 3 {
		return false
	}
	if pg.OnBoundary(p) {
		return true
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
	return inside
}

// distTwoPass is DistToPoint as it was first written: Contains, then a
// second pass over the edges. DistToPoint now answers both from one pass,
// taking an edge within Eps as the boundary; the values must be identical.
func distTwoPass(pg Polygon, p Point) float64 {
	if pg.Contains(p) {
		return 0
	}
	d := math.Inf(1)
	n := len(pg.Vertices)
	if n < 2 {
		return d
	}
	for i := 0; i < n; i++ {
		if v := Seg(pg.Vertices[i], pg.Vertices[(i+1)%n]).DistToPoint(p); v < d {
			d = v
		}
	}
	return d
}

// fuzzPolygon decodes a polygon from byte pairs, each a signed vertex
// coordinate in half-metre steps, so fuzzed shapes (convex, concave or
// self-crossing) keep edges on a lattice that fuzzed points can land on.
// At most 16 vertices are read.
func fuzzPolygon(verts []byte) Polygon {
	var pg Polygon
	for i := 0; i+1 < len(verts) && len(pg.Vertices) < 16; i += 2 {
		pg.Vertices = append(pg.Vertices, Pt(float64(int8(verts[i]))/2, float64(int8(verts[i+1]))/2))
	}
	return pg
}

// fuzzVerts is fuzzPolygon's inverse for lattice polygons.
func fuzzVerts(pg Polygon) []byte {
	b := make([]byte, 0, 2*len(pg.Vertices))
	for _, v := range pg.Vertices {
		b = append(b, byte(int8(v.X*2)), byte(int8(v.Y*2)))
	}
	return b
}

// FuzzPolygonContains: the ray-cast-first Contains equals the
// boundary-first reference, and the one-pass DistToPoint the two-pass one,
// on every polygon and point. The seeds sit where
// the two tests meet: vertices, edge midpoints, points Eps either side of
// an edge, and the concave L's notch.
func FuzzPolygonContains(f *testing.F) {
	tri := poly(Pt(0, 0), Pt(5, 0), Pt(1, 3))
	for _, pg := range []Polygon{unitSquare(), lShape(), tri} {
		verts := fuzzVerts(pg)
		for i, v := range pg.Vertices {
			w := pg.Vertices[(i+1)%len(pg.Vertices)]
			mid := v.Lerp(w, 0.5)
			// Unit normal of the edge, to step Eps off it either way.
			d := w.Sub(v)
			nrm := Pt(-d.Y, d.X).Scale(1 / d.Norm())
			for _, p := range []Point{v, mid, mid.Add(nrm.Scale(Eps)), mid.Sub(nrm.Scale(Eps)),
				mid.Add(nrm.Scale(2 * Eps)), mid.Sub(nrm.Scale(2 * Eps))} {
				f.Add(verts, p.X, p.Y)
			}
		}
	}
	l := fuzzVerts(lShape())
	for _, p := range []Point{Pt(3, 3), Pt(2, 2), Pt(2+Eps, 2+Eps), Pt(2-Eps, 2+Eps), Pt(1, 3), Pt(3, 1)} {
		f.Add(l, p.X, p.Y)
	}
	f.Fuzz(func(t *testing.T, verts []byte, x, y float64) {
		pg, p := fuzzPolygon(verts), Pt(x, y)
		if got, want := pg.Contains(p), containsBoundaryFirst(pg, p); got != want {
			t.Fatalf("Contains(%v) = %v, boundary-first reference %v, polygon %v", p, got, want, pg.Vertices)
		}
		if got, want := pg.DistToPoint(p), distTwoPass(pg, p); got != want {
			t.Fatalf("DistToPoint(%v) = %v, two-pass reference %v, polygon %v", p, got, want, pg.Vertices)
		}
	})
}
