package geom

import (
	"math"
	"testing"
)

func TestPolylineTurnCount(t *testing.T) {
	zig := Polyline{Points: []Point{Pt(0, 0), Pt(1, 0), Pt(1, 1), Pt(2, 1), Pt(2, 2)}}
	if c := zig.TurnCount(math.Pi / 4); c != 3 {
		t.Errorf("TurnCount = %d, want 3", c)
	}
	straight := Polyline{Points: []Point{Pt(0, 0), Pt(1, 0), Pt(2, 0), Pt(3, 0)}}
	if c := straight.TurnCount(math.Pi / 4); c != 0 {
		t.Errorf("straight TurnCount = %d", c)
	}
}
