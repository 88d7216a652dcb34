package dsm_test

import (
	"math"
	"testing"

	"trips/internal/dsm"
	"trips/internal/geom"
	"trips/internal/simul"
)

// snapFullScan is SnapToWalkable as a brute-force reference: a walkable
// point stays, anything else goes to the first partition on the floor, in
// floor order, at the least DistToPoint, clamped inside it.
func snapFullScan(m *dsm.Model, p geom.Point, f dsm.FloorID) (geom.Point, *dsm.Entity, bool) {
	if e := m.Locate(p, f); e != nil {
		return p, e, true
	}
	var best *dsm.Entity
	bestD := 0.0
	for _, e := range m.Entities {
		if e.Floor != f || !e.Kind.Walkable() {
			continue
		}
		if d := e.Shape.DistToPoint(p); best == nil || d < bestD {
			best, bestD = e, d
		}
	}
	if best == nil {
		return p, nil, false
	}
	return dsm.ClampInside(best.Shape, p), best, true
}

// FuzzSnapToWalkable: the pruned one-pass search returns exactly the full
// scan's point and partition, on a 6-shop and a 100-shop mall (floor 0 is
// absent from both). The seeds are in-wall points, points on partition
// boundaries, points where two partitions are exactly as near (under the
// elevator, off a corner both a staircase and the hall share), and
// off-plan points more than 32 m out.
func FuzzSnapToWalkable(f *testing.F) {
	venues := map[bool]*dsm.Model{}
	for _, big := range []bool{false, true} {
		shops := 6
		if big {
			shops = 100
		}
		m, err := simul.BuildMall(simul.MallSpec{Floors: 3, ShopsPerFloor: shops})
		if err != nil {
			f.Fatal(err)
		}
		venues[big] = m
		w := float64(shops) * 10 // shop width 10 m, hall depth 12 m, wall 0.4 m
		for _, p := range []geom.Point{
			geom.Pt(5, 12.2), geom.Pt(w/2+0.5, 12.01), geom.Pt(w-0.1, 12.39), // in the wall
			geom.Pt(10, 18), geom.Pt(w/2, 12), geom.Pt(0, 6), geom.Pt(4, 2), // on a boundary
			geom.Pt(w/2, -5), geom.Pt(-3, -3), geom.Pt(w+3, -3), // equidistant
			geom.Pt(-40, 6), geom.Pt(w+50, 20), geom.Pt(w/2, -45), geom.Pt(w/3, 70), // > 32 m out
		} {
			f.Add(big, uint8(1), p.X, p.Y)
		}
	}
	f.Add(false, uint8(2), 30.0, 12.2)
	f.Add(true, uint8(0), 3.0, 3.0)
	f.Fuzz(func(t *testing.T, big bool, floor uint8, x, y float64) {
		if math.IsNaN(x) || math.IsNaN(y) || math.IsInf(x, 0) || math.IsInf(y, 0) {
			t.Skip("positions are finite: the parsers reject NaN and Inf")
		}
		m, p, fl := venues[big], geom.Pt(x, y), dsm.FloorID(floor%4)
		gp, ge, gok := m.SnapToWalkable(p, fl)
		rp, re, rok := snapFullScan(m, p, fl)
		if gp != rp || ge != re || gok != rok {
			t.Fatalf("SnapToWalkable(%v, %v) = %v %v %v; full scan %v %v %v", p, fl, gp, id(ge), gok, rp, id(re), rok)
		}
	})
}

func id(e *dsm.Entity) dsm.EntityID {
	if e == nil {
		return ""
	}
	return e.ID
}
