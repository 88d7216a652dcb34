package geom

// Polyline is an open chain of points, used for walls and for movement
// traces.
type Polyline struct {
	Points []Point `json:"points"`
}

// TurnCount returns the number of direction changes along the chain whose
// turn angle exceeds minAngle radians. It is one of the movement features the
// Annotator extracts.
func (pl Polyline) TurnCount(minAngle float64) int {
	n := len(pl.Points)
	cnt := 0
	for i := 2; i < n; i++ {
		if TurnAngle(pl.Points[i-2], pl.Points[i-1], pl.Points[i]) > minAngle {
			cnt++
		}
	}
	return cnt
}
