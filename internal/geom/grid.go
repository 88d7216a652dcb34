package geom

import "math"

// GridIndex is a uniform spatial hash over the plane. The DSM uses it to
// answer "which entity contains this point" queries during cleaning and
// annotation without scanning every entity; the complexity of a lookup is
// proportional to the number of items whose bounds overlap the probed cell.
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
// covering the given bounds. It returns the id for convenience.
func (g *GridIndex) Insert(id int, bounds Rect) int {
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
	return id
}

// QueryRect returns the ids of all items whose bounds intersect r,
// deduplicated, in unspecified order.
func (g *GridIndex) QueryRect(r Rect) []int {
	if r.IsEmpty() {
		return nil
	}
	seen := make(map[int]bool)
	var out []int
	lo, hi := g.key(r.Min), g.key(r.Max)
	for cx := lo.cx; cx <= hi.cx; cx++ {
		for cy := lo.cy; cy <= hi.cy; cy++ {
			for _, id := range g.cells[gridKey{cx, cy}] {
				if !seen[id] && g.boxes[id].Intersects(r) {
					seen[id] = true
					out = append(out, id)
				}
			}
		}
	}
	return out
}

// Allocation-free query surface ------------------------------------------
//
// QueryRect allocates its result slice, as the point query Locate once
// walked did: the single largest object source on the online hot path,
// since every cleaning speed check locates. The methods below expose the
// same candidates without allocating: callers range over an index-owned cell
// slice (point queries) or drive a value-type iterator (rect queries).

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

// RectIter enumerates, without allocating, the ids whose bounds intersect a
// query rect — the same ids QueryRect returns, in the same order. Dedup is
// by home cell: an id spans every cell its bounds overlap, so it is emitted
// only from the first overlapping cell in scan order, which is exactly
// where the seen-map version would first encounter it.
type RectIter struct {
	g      *GridIndex
	r      Rect
	lo, hi gridKey
	cx, cy int
	i      int // next position within the current cell's id list
	done   bool
}

// QueryRectIter returns an iterator over the ids intersecting r. The
// iterator is a value; keeping it on the caller's stack makes the whole
// query allocation-free.
func (g *GridIndex) QueryRectIter(r Rect) RectIter {
	if r.IsEmpty() {
		return RectIter{done: true}
	}
	lo, hi := g.key(r.Min), g.key(r.Max)
	return RectIter{g: g, r: r, lo: lo, hi: hi, cx: lo.cx, cy: lo.cy}
}

// Next returns the next intersecting id; ok is false when exhausted.
//
//trips:zeroalloc
func (it *RectIter) Next() (id int, ok bool) {
	if it.done {
		return 0, false
	}
	for {
		ids := it.g.cells[gridKey{it.cx, it.cy}]
		for it.i < len(ids) {
			id := ids[it.i]
			it.i++
			b := it.g.boxes[id]
			if !b.Intersects(it.r) {
				continue
			}
			// Home-cell check: emit only in the first scanned cell
			// this id appears in.
			blo := it.g.key(b.Min)
			hcx, hcy := blo.cx, blo.cy
			if hcx < it.lo.cx {
				hcx = it.lo.cx
			}
			if hcy < it.lo.cy {
				hcy = it.lo.cy
			}
			if hcx == it.cx && hcy == it.cy {
				return id, true
			}
		}
		it.i = 0
		it.cy++
		if it.cy > it.hi.cy {
			it.cy = it.lo.cy
			it.cx++
			if it.cx > it.hi.cx {
				it.done = true
				return 0, false
			}
		}
	}
}
