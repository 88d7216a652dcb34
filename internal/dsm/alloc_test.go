package dsm

import (
	"math"
	"testing"

	"trips/internal/geom"
)

// TestWalkingDistanceSnappedZeroAlloc guards the walking distance the
// Cleaner prices every speed check with: once the pooled Dijkstra scratch
// is warm, pricing snapped endpoints allocates nothing, in one partition,
// through doors and across floors.
//
//trips:guards Model.WalkingDistanceSnapped
//trips:guards Model.shortest
//trips:guards targetTail
func TestWalkingDistanceSnappedZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inhibits inlining and drops pooled scratch")
	}
	m := newTestVenue(t)
	hall := m.Snap(Location{geom.Pt(2, 2), 1})
	adidas := m.Snap(Location{geom.Pt(5, 15), 1})
	nike := m.Snap(Location{geom.Pt(15, 15), 1})
	books := m.Snap(Location{geom.Pt(5, 15), 2})
	pairs := [][2]Snapped{{hall, adidas}, {adidas, nike}, {adidas, books}}
	price := func() {
		for _, pr := range pairs {
			if _, ok := m.WalkingDistanceSnapped(pr[0], pr[1]); !ok {
				t.Fatal("unreachable")
			}
		}
	}
	price()
	if avg := testing.AllocsPerRun(200, price); avg != 0 {
		t.Errorf("WalkingDistanceSnapped allocates %.2f times per round, want 0", avg)
	}
}

// TestSnapZeroAlloc guards the snap the Cleaner runs for every record it
// speed-checks: placing an interior, an in-wall, an off-plan and a far
// off-plan point in walkable space allocates nothing.
//
//trips:guards Model.SnapToWalkable
//trips:guards Model.Snap
func TestSnapZeroAlloc(t *testing.T) {
	m := newTestVenue(t)
	locs := []Location{{geom.Pt(5, 15), 1}, {geom.Pt(8, 10.2), 1}, {geom.Pt(-3, 25), 1}, {geom.Pt(-60, 90), 2}}
	snap := func() {
		for _, l := range locs {
			if _, e, ok := m.SnapToWalkable(l.P, l.Floor); !ok || e == nil {
				t.Fatalf("SnapToWalkable(%v) found no partition", l)
			}
			if m.Snap(l).Part == nil {
				t.Fatalf("Snap(%v) found no partition", l)
			}
		}
	}
	if avg := testing.AllocsPerRun(200, snap); avg != 0 {
		t.Errorf("SnapToWalkable allocates %.2f times per round, want 0", avg)
	}
}

// TestWalkingPathPricesDistance: the one Dijkstra serves both queries, so
// wherever the distance is defined the path exists, starts and ends at the
// endpoints' snaps, and its legs (planar, plus the storey cost of a shaft
// leg) add up to the distance. The locations include points the snap
// moves: in a wall, off the plan, on a floor the venue lacks.
func TestWalkingPathPricesDistance(t *testing.T) {
	m := newTestVenue(t)
	locs := []Location{
		{geom.Pt(2, 2), 1}, {geom.Pt(5, 15), 1}, {geom.Pt(15, 15), 1}, {geom.Pt(5, 15), 2},
		{geom.Pt(8, 10.2), 1}, {geom.Pt(-3, 25), 1}, {geom.Pt(37, 2), 2}, {geom.Pt(5, 5), 9},
	}
	for _, a := range locs {
		for _, b := range locs {
			d, ok := m.WalkingDistance(a, b)
			path := m.WalkingPath(a, b)
			if ok != (path != nil) {
				t.Fatalf("%v→%v: distance reachable %v, path %v", a, b, ok, path)
			}
			if !ok {
				continue
			}
			sa, sb := m.Snap(a), m.Snap(b)
			if path[0] != (Location{sa.P, a.Floor}) || path[len(path)-1] != (Location{sb.P, b.Floor}) {
				t.Errorf("%v→%v: path ends %v, %v; snaps %v, %v", a, b, path[0], path[len(path)-1], sa.P, sb.P)
			}
			var sum float64
			for i := 1; i < len(path); i++ {
				sum += path[i-1].P.Dist(path[i].P)
				if df := float64(path[i].Floor - path[i-1].Floor); df != 0 {
					sum += math.Abs(df) * m.FloorHeight * verticalCostFactor
				}
			}
			if !almostEq(sum, d) {
				t.Errorf("%v→%v: path legs sum to %v, distance %v", a, b, sum, d)
			}
		}
	}
}
