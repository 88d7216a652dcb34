package dsm

import (
	"fmt"
	"math"
	"sort"

	"trips/internal/geom"
)

// The navigation graph ("door graph") realizes the minimum indoor walking
// distance of paper ref. [13]: people move between walkable partitions only
// through doors and change floors only through staircases/elevators. Nodes
// are connector entities (doors and vertical shafts); two nodes are linked
// when they touch a common partition, weighted by the Euclidean distance
// between their centers within that partition; shaft nodes on adjacent
// floors link vertically at a cost derived from the floor height.

type navNode struct {
	center geom.Point
	floor  FloorID
}

type navEdge struct {
	to int
	w  float64
}

type navGraph struct {
	nodes []navNode
	adj   [][]navEdge
	// byPartition lists node indexes touching each walkable partition.
	byPartition map[EntityID][]int
	// byPartIdx is byPartition re-keyed by the dense entity index Freeze
	// assigns, so the Dijkstra hot path indexes an array instead of
	// hashing an EntityID string.
	byPartIdx [][]int
}

// doorTouchSlack is how far a door polygon may be from a partition polygon
// and still be considered connected to it (door frames are drawn inside
// walls, which are typically 0.2–0.4 m thick).
const doorTouchSlack = 0.5

// verticalCostFactor converts a storey height into an equivalent horizontal
// walking distance (stairs are slower than level walking).
const verticalCostFactor = 3.0

func (m *Model) buildNavGraph() error {
	g := &navGraph{byPartition: make(map[EntityID][]int)}

	// Collect connector nodes: doors and vertical shafts.
	shaftByGroup := make(map[string][]int) // vertical group -> node indexes
	for _, e := range m.Entities {
		switch {
		case e.Kind == KindDoor:
			idx := len(g.nodes)
			g.nodes = append(g.nodes, navNode{e.Center(), e.Floor})
			parts := m.doorPartitions(e)
			if len(parts) == 0 {
				return fmt.Errorf("dsm: door %s connects no walkable partition", e.ID)
			}
			for _, p := range parts {
				g.byPartition[p.ID] = append(g.byPartition[p.ID], idx)
			}
		case e.Kind.Vertical():
			idx := len(g.nodes)
			g.nodes = append(g.nodes, navNode{e.Center(), e.Floor})
			// A shaft is itself walkable, so it belongs to its own
			// partition, and to any partition it touches (entry landing).
			g.byPartition[e.ID] = append(g.byPartition[e.ID], idx)
			for _, p := range m.touchingPartitions(e) {
				g.byPartition[p.ID] = append(g.byPartition[p.ID], idx)
			}
			shaftByGroup[e.verticalGroup()] = append(shaftByGroup[e.verticalGroup()], idx)
		}
	}

	g.adj = make([][]navEdge, len(g.nodes))

	// Intra-partition edges: all connector nodes sharing a partition.
	// Partitions are visited in sorted order so adjacency lists are built
	// identically across runs: edge order breaks ties between equal-cost
	// paths, which must not depend on map iteration.
	partIDs := make([]EntityID, 0, len(g.byPartition))
	//trips:commutative key collection; iteration order is erased by the sort below
	for p := range g.byPartition {
		partIDs = append(partIDs, p)
	}
	sort.Slice(partIDs, func(i, j int) bool { return partIDs[i] < partIDs[j] })
	for _, p := range partIDs {
		idxs := g.byPartition[p]
		for i := 0; i < len(idxs); i++ {
			for j := i + 1; j < len(idxs); j++ {
				a, b := idxs[i], idxs[j]
				w := g.nodes[a].center.Dist(g.nodes[b].center)
				if w < 0.1 {
					w = 0.1 // distinct doors are never free to travel between
				}
				g.adj[a] = append(g.adj[a], navEdge{b, w})
				g.adj[b] = append(g.adj[b], navEdge{a, w})
			}
		}
	}

	// Vertical edges between shafts of the same group on adjacent floors,
	// again in sorted group order for deterministic edge lists.
	groups := make([]string, 0, len(shaftByGroup))
	//trips:commutative key collection; iteration order is erased by the sort below
	for gr := range shaftByGroup {
		groups = append(groups, gr)
	}
	sort.Strings(groups)
	for _, gr := range groups {
		idxs := shaftByGroup[gr]
		sort.Slice(idxs, func(i, j int) bool {
			return g.nodes[idxs[i]].floor < g.nodes[idxs[j]].floor
		})
		for i := 1; i < len(idxs); i++ {
			a, b := idxs[i-1], idxs[i]
			df := float64(g.nodes[b].floor - g.nodes[a].floor)
			w := math.Abs(df) * m.FloorHeight * verticalCostFactor
			g.adj[a] = append(g.adj[a], navEdge{b, w})
			g.adj[b] = append(g.adj[b], navEdge{a, w})
		}
	}

	// Dense per-entity node lists for the hot path.
	g.byPartIdx = make([][]int, len(m.Entities))
	//trips:commutative per-key copy into a dense array; each key writes only its own slot
	for id, list := range g.byPartition {
		g.byPartIdx[m.byID[id].idx] = list
	}

	m.nav = g
	return nil
}

// doorPartitions resolves the partitions a door connects: the explicit
// Connects list when present, otherwise every walkable partition within
// doorTouchSlack of the door shape on its floor.
func (m *Model) doorPartitions(door *Entity) []*Entity {
	if len(door.Connects) > 0 {
		out := make([]*Entity, 0, len(door.Connects))
		for _, id := range door.Connects {
			if e := m.byID[id]; e != nil && e.Kind.Walkable() {
				out = append(out, e)
			}
		}
		return out
	}
	return m.touchingPartitions(door)
}

// touchingPartitions returns walkable partitions whose shape comes within
// doorTouchSlack of e's shape, excluding e itself.
func (m *Model) touchingPartitions(e *Entity) []*Entity {
	fi := m.floors[e.Floor]
	if fi == nil {
		return nil
	}
	var out []*Entity
	query := e.Shape.Bounds().Expand(doorTouchSlack)
	for i, p := range fi.partitions {
		if p.ID == e.ID || !fi.partGrid.Bounds(i).Intersects(query) {
			continue
		}
		if polygonsTouch(e.Shape, p.Shape, doorTouchSlack) {
			out = append(out, p)
		}
	}
	return out
}

// polygonsTouch reports whether two polygons come within slack of each other.
func polygonsTouch(a, b geom.Polygon, slack float64) bool {
	for _, v := range a.Vertices {
		if b.DistToPoint(v) <= slack {
			return true
		}
	}
	for _, v := range b.Vertices {
		if a.DistToPoint(v) <= slack {
			return true
		}
	}
	for _, ea := range a.Edges() {
		for _, eb := range b.Edges() {
			if ea.DistToSegment(eb) <= slack {
				return true
			}
		}
	}
	return false
}

// Location pins a point to a floor; the unit of indoor positioning.
type Location struct {
	P     geom.Point
	Floor FloorID
}

// Snapped is a location SnapToWalkable has placed in walkable space: the
// walkable point and the partition containing it, which lies on the
// location's floor. Part is nil when the model has no walkable partition
// on that floor; no walking path starts or ends there.
type Snapped struct {
	P    geom.Point
	Part *Entity
}

// Snap places a location in walkable space: SnapToWalkable in the form the
// snapped walking queries take. Callers that pair one location with many
// others snap it once and reuse the result.
//
//trips:zeroalloc
func (m *Model) Snap(l Location) Snapped {
	p, e, _ := m.SnapToWalkable(l.P, l.Floor)
	return Snapped{p, e}
}

// WalkingDistance returns the minimum indoor walking distance between two
// locations, respecting doors, walls and floors. Points outside walkable
// space are snapped to the nearest partition first. The boolean is false
// when no path exists (disconnected partitions or unknown floor).
func (m *Model) WalkingDistance(from, to Location) (float64, bool) {
	return m.WalkingDistanceSnapped(m.Snap(from), m.Snap(to))
}

// WalkingDistanceSnapped is WalkingDistance between endpoints already
// snapped. The Cleaner prices every speed check with it, snapping each
// record once rather than once per pair it is tested in.
//
// The Dijkstra working state is pooled (see dijkstraScratch), the heap is
// typed, and partitions are addressed by dense entity index, so a call is
// allocation-free at steady state.
//
//trips:zeroalloc
func (m *Model) WalkingDistanceSnapped(a, b Snapped) (float64, bool) {
	if a.Part == nil || b.Part == nil {
		return 0, false
	}
	if a.Part.idx == b.Part.idx {
		return a.P.Dist(b.P), true
	}
	s := m.getNavScratch()
	defer m.putNavScratch(s)
	best, _ := m.shortest(s, a, b)
	if math.IsInf(best, 1) {
		return 0, false
	}
	return best, true
}

// shortest runs the door-graph Dijkstra between two snapped endpoints in
// different partitions. A virtual source joins a.P to every connector of
// a's partition, and a virtual target joins b's connectors to b.P. It
// returns the walking distance and the last connector before the target,
// whose s.prev chain is the path; +Inf and -1 when no path exists.
//
//trips:zeroalloc
func (m *Model) shortest(s *dijkstraScratch, a, b Snapped) (float64, int) {
	g := m.nav
	sources, targets := g.byPartIdx[a.Part.idx], g.byPartIdx[b.Part.idx]
	if len(sources) == 0 || len(targets) == 0 {
		return math.Inf(1), -1
	}
	for i := range s.dist {
		s.dist[i] = math.Inf(1)
		s.prev[i] = -1
	}
	for _, idx := range sources {
		d := a.P.Dist(g.nodes[idx].center)
		if d < s.dist[idx] {
			s.dist[idx] = d
			s.push(distItem{idx, d})
		}
	}
	bestNode, best := -1, math.Inf(1)
	for len(s.heap) > 0 {
		it := s.pop()
		if it.d > s.dist[it.node] {
			continue
		}
		if it.d >= best {
			break
		}
		if tail, ok := targetTail(g, targets, b.P, it.node); ok {
			if v := it.d + tail; v < best {
				best, bestNode = v, it.node
			}
		}
		for _, e := range g.adj[it.node] {
			if nd := it.d + e.w; nd < s.dist[e.to] {
				s.dist[e.to] = nd
				s.prev[e.to] = it.node
				s.push(distItem{e.to, nd})
			}
		}
	}
	return best, bestNode
}

// targetTail returns the virtual-target tail distance from node to pb when
// node is one of the target partition's connectors. The target lists are a
// handful of doors, so a linear scan beats building a map per call.
//
//trips:zeroalloc
func targetTail(g *navGraph, targets []int, pb geom.Point, node int) (float64, bool) {
	for _, t := range targets {
		if t == node {
			return pb.Dist(g.nodes[t].center), true
		}
	}
	return 0, false
}

// WalkingPath returns the sequence of connector points (door and shaft
// centers) on a minimum walking path between the two locations, including
// the snapped endpoints, or nil when unreachable. The Cleaner interpolates
// repaired locations along this path.
func (m *Model) WalkingPath(from, to Location) []Location {
	out, ok := m.AppendWalkingPathSnapped(nil, m.Snap(from), m.Snap(to))
	if !ok {
		return nil
	}
	return out
}

// AppendWalkingPathSnapped appends to dst a minimum walking path between
// endpoints already snapped and reports whether one exists; on false, dst
// is returned unchanged. The Cleaner's interpolation reuses its anchors'
// snaps and its path buffer: aside from growing dst, a call is
// allocation-free at steady state.
func (m *Model) AppendWalkingPathSnapped(dst []Location, a, b Snapped) ([]Location, bool) {
	if a.Part == nil || b.Part == nil {
		return dst, false
	}
	from, to := Location{a.P, a.Part.Floor}, Location{b.P, b.Part.Floor}
	if a.Part.idx == b.Part.idx {
		return append(dst, from, to), true
	}
	s := m.getNavScratch()
	defer m.putNavScratch(s)
	_, bestNode := m.shortest(s, a, b)
	if bestNode < 0 {
		return dst, false
	}
	g := m.nav
	s.rev = s.rev[:0]
	for n := bestNode; n >= 0; n = s.prev[n] {
		s.rev = append(s.rev, Location{g.nodes[n].center, g.nodes[n].floor})
	}
	dst = append(dst, from)
	for i := len(s.rev) - 1; i >= 0; i-- {
		dst = append(dst, s.rev[i])
	}
	return append(dst, to), true
}

// Reachable reports whether any walking path connects the two locations.
func (m *Model) Reachable(from, to Location) bool {
	_, ok := m.WalkingDistance(from, to)
	return ok
}

// buildRegionAdjacency derives the semantic-region connectivity: two regions
// are adjacent when a partition of one is a partition of the other, when a
// door directly joins partitions of the two, or when both cover the same
// vertical shaft group. Mere geometric contact does NOT make regions
// adjacent: two shops sharing a wall are not mutually reachable without
// passing whatever joins their doors, and the Complementor's inference
// paths must respect that.
func (m *Model) buildRegionAdjacency() {
	m.regAdj = make(map[RegionID][]RegionID, len(m.Regions))
	// partition -> regions covering it
	cover := make(map[EntityID][]RegionID)
	for _, r := range m.Regions {
		for _, eid := range r.Entities {
			cover[eid] = append(cover[eid], r.ID)
		}
	}
	addPair := func(a, b RegionID) {
		if a == b {
			return
		}
		for _, x := range m.regAdj[a] {
			if x == b {
				return
			}
		}
		m.regAdj[a] = append(m.regAdj[a], b)
		m.regAdj[b] = append(m.regAdj[b], a)
	}
	// Shared partitions.
	//trips:commutative addPair dedupes and regAdj is sorted after construction
	for _, regs := range cover {
		for i := 0; i < len(regs); i++ {
			for j := i + 1; j < len(regs); j++ {
				addPair(regs[i], regs[j])
			}
		}
	}
	// Door-joined partitions.
	for _, e := range m.Entities {
		if e.Kind != KindDoor {
			continue
		}
		parts := m.doorPartitions(e)
		for i := 0; i < len(parts); i++ {
			for j := i + 1; j < len(parts); j++ {
				for _, ra := range cover[parts[i].ID] {
					for _, rb := range cover[parts[j].ID] {
						addPair(ra, rb)
					}
				}
			}
		}
	}
	// Shared vertical shafts across floors.
	shaftRegions := make(map[string][]RegionID)
	for _, e := range m.Entities {
		if !e.Kind.Vertical() {
			continue
		}
		for _, rid := range cover[e.ID] {
			shaftRegions[e.verticalGroup()] = append(shaftRegions[e.verticalGroup()], rid)
		}
	}
	//trips:commutative addPair dedupes and regAdj is sorted after construction
	for _, regs := range shaftRegions {
		for i := 0; i < len(regs); i++ {
			for j := i + 1; j < len(regs); j++ {
				addPair(regs[i], regs[j])
			}
		}
	}
	// Deterministic neighbor order.
	//trips:commutative in-place sort of each adjacency list; key visit order is irrelevant
	for id := range m.regAdj {
		sort.Slice(m.regAdj[id], func(i, j int) bool { return m.regAdj[id][i] < m.regAdj[id][j] })
	}
}

// distItem is one Dijkstra frontier entry.
type distItem struct {
	node int
	d    float64
}

// dijkstraScratch is the pooled per-call working state of the walking
// queries: the tentative-distance and predecessor arrays, the frontier
// heap, and the path-reversal buffer. Pooling it (Model.navScratch) and
// typing the heap removes every per-call allocation the old
// container/heap-based implementation made — previously ~45% of all
// objects allocated on the online hot path.
type dijkstraScratch struct {
	dist []float64
	prev []int
	heap []distItem
	rev  []Location
}

// push adds an item to the frontier min-heap. The sift-up replicates
// container/heap.Push exactly — WalkingPath's choice among equal-cost
// paths depends on heap tie behavior, which must not change.
func (s *dijkstraScratch) push(it distItem) {
	h := append(s.heap, it)
	j := len(h) - 1
	for j > 0 {
		i := (j - 1) / 2
		if h[i].d <= h[j].d {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
	s.heap = h
}

// pop removes the minimum item, replicating container/heap.Pop's
// swap-then-sift-down order (see push for why the semantics are pinned).
func (s *dijkstraScratch) pop() distItem {
	h := s.heap
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && h[j2].d < h[j1].d {
			j = j2
		}
		if h[j].d >= h[i].d {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	it := h[n]
	s.heap = h[:n]
	return it
}

// getNavScratch returns pooled Dijkstra scratch sized for the nav graph.
func (m *Model) getNavScratch() *dijkstraScratch {
	s, _ := m.navScratch.Get().(*dijkstraScratch)
	if s == nil {
		s = new(dijkstraScratch)
	}
	if n := len(m.nav.nodes); cap(s.dist) < n {
		s.dist = make([]float64, n)
		s.prev = make([]int, n)
	} else {
		s.dist = s.dist[:n]
		s.prev = s.prev[:n]
	}
	s.heap = s.heap[:0]
	return s
}

// putNavScratch returns scratch to the pool.
func (m *Model) putNavScratch(s *dijkstraScratch) {
	s.heap = s.heap[:0]
	s.rev = s.rev[:0]
	m.navScratch.Put(s)
}
