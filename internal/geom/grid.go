package geom

import "math"

// GridIndex is a uniform spatial hash over the plane. The DSM uses it to
// answer "which entity contains this point" for every record it locates
// (Locate, RegionAt) without scanning every entity; a lookup costs one hash
// and the items whose bounds overlap the probed cell. It answers point
// queries only: searches that measure every item on a floor, such as the
// nearest-partition snap, loop over the items and their Bounds directly.
type GridIndex struct {
	cell  float64
	cells map[gridKey][]int
	boxes []Rect
}

type gridKey struct{ cx, cy int }

// NewGridIndex creates an index with the given cell size in meters.
// Cell sizes at roughly the median item diameter perform best; the DSM uses
// 4 m for room-scale entities.
func NewGridIndex(cellSize float64) *GridIndex {
	if cellSize <= 0 {
		cellSize = 1
	}
	return &GridIndex{cell: cellSize, cells: make(map[gridKey][]int)}
}

func (g *GridIndex) key(p Point) gridKey {
	return gridKey{int(math.Floor(p.X / g.cell)), int(math.Floor(p.Y / g.cell))}
}

// Insert adds an item identified by its index in the caller's collection,
// covering the given bounds.
func (g *GridIndex) Insert(id int, bounds Rect) {
	for len(g.boxes) <= id {
		g.boxes = append(g.boxes, EmptyRect())
	}
	g.boxes[id] = bounds
	lo, hi := g.key(bounds.Min), g.key(bounds.Max)
	for cx := lo.cx; cx <= hi.cx; cx++ {
		for cy := lo.cy; cy <= hi.cy; cy++ {
			k := gridKey{cx, cy}
			g.cells[k] = append(g.cells[k], id)
		}
	}
}

// Allocation-free query surface ------------------------------------------
//
// Every record the Cleaner speed-checks is located, so the point query
// hands out an index-owned cell slice that callers filter with Bounds.

// PointCandidates returns the ids whose covering cells include p — a
// superset of the items containing p; callers filter with
// Bounds(id).Contains(p).
// The returned slice is owned by the index: read-only, valid until the next
// Insert. It never allocates.
//
//trips:zeroalloc
func (g *GridIndex) PointCandidates(p Point) []int {
	return g.cells[g.key(p)]
}

// Bounds returns the indexed bounds of id, as passed to Insert.
//
//trips:zeroalloc
func (g *GridIndex) Bounds(id int) Rect { return g.boxes[id] }
