package dsm_test

import (
	"fmt"
	"math/rand"
	"testing"

	"trips/internal/dsm"
	"trips/internal/geom"
	"trips/internal/simul"
)

// locateMix returns n seeded locations on a 3-floor mall with the given
// shops per floor: seven in ten inside a walkable partition, two in a wall,
// one off the floor plan — the mix positioning noise hands the Cleaner,
// which snaps every record.
func locateMix(b *testing.B, shops, n int) (*dsm.Model, []dsm.Location) {
	m, err := simul.BuildMall(simul.MallSpec{Floors: 3, ShopsPerFloor: shops})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	in := func(r geom.Rect) geom.Point {
		return geom.Pt(r.Min.X+rng.Float64()*r.Width(), r.Min.Y+rng.Float64()*r.Height())
	}
	var walls []*dsm.Entity
	parts := map[dsm.FloorID][]*dsm.Entity{}
	for _, e := range m.Entities {
		if e.Kind == dsm.KindWall {
			walls = append(walls, e)
		}
		if e.Kind.Walkable() {
			parts[e.Floor] = append(parts[e.Floor], e)
		}
	}
	floors := m.Floors()
	out := make([]dsm.Location, 0, n)
	for len(out) < n {
		f := floors[rng.Intn(len(floors))]
		switch k := rng.Intn(10); {
		case k < 7:
			e := parts[f][rng.Intn(len(parts[f]))]
			if p := in(e.Shape.Bounds()); e.Shape.Contains(p) {
				out = append(out, dsm.Location{P: p, Floor: f})
			}
		case k < 9:
			w := walls[rng.Intn(len(walls))]
			out = append(out, dsm.Location{P: in(w.Shape.Bounds()), Floor: w.Floor})
		default:
			fb := m.FloorBounds(f)
			out = append(out, dsm.Location{P: geom.Pt(fb.Max.X+1+rng.Float64()*20, fb.Min.Y-1-rng.Float64()*20), Floor: f})
		}
	}
	return m, out
}

// BenchmarkLocate times locating a record, the Cleaning layer's hot spot:
// Locate alone (the grid candidates and their point-in-polygon tests), and
// SnapToWalkable, which adds the nearest-partition search for points
// outside walkable space. It runs on two venues: 6 shops a floor (10
// walkable partitions, the size every workload uses) and 100 (104), where
// the search's one pass over the floor's partitions costs the most.
func BenchmarkLocate(b *testing.B) {
	for _, shops := range []int{6, 100} {
		m, locs := locateMix(b, shops, 1024)
		b.Run(fmt.Sprintf("shops=%d", shops), func(b *testing.B) {
			b.Run("locate", func(b *testing.B) {
				b.ReportAllocs()
				i := 0
				for b.Loop() {
					l := locs[i%len(locs)]
					m.Locate(l.P, l.Floor)
					i++
				}
			})
			b.Run("snap", func(b *testing.B) {
				b.ReportAllocs()
				i := 0
				for b.Loop() {
					l := locs[i%len(locs)]
					m.SnapToWalkable(l.P, l.Floor)
					i++
				}
			})
		})
	}
}
