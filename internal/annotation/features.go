package annotation

import (
	"math"

	"trips/internal/geom"
	"trips/internal/position"
)

// FeatureNames lists the movement features, in vector order. The set
// follows the paper: "positioning location variance, traveling distance and
// speed, covering range, number of turns, etc."
var FeatureNames = []string{
	"duration_s",       // snippet time span
	"count",            // number of records
	"location_var",     // mean squared distance from the centroid
	"travel_dist",      // summed step distance
	"net_displacement", // start-to-end distance
	"mean_speed",       // travel distance / duration
	"max_step_speed",   // fastest single step
	"covering_range",   // min enclosing circle radius
	"turn_count",       // direction changes > 45°
	"turn_density",     // turns per traveled meter
	"straightness",     // net displacement / travel distance
	"dense_frac",       // 1 when the snippet is density-core
}

// NumFeatures is the feature vector length.
var NumFeatures = len(FeatureNames)

// FeaturizeRecords computes the feature vector of a record run. dense is the
// density flag from the splitter (or a best guess for training segments).
func FeaturizeRecords(recs []position.Record, dense bool) []float64 {
	var pts []geom.Point
	return featurizeInto(make([]float64, NumFeatures), &pts, recs, dense)
}

// featurizeInto computes the feature vector into f (len NumFeatures, zeroed
// by the caller), borrowing *pts as point scratch — the allocation-free
// inner loop behind FeaturizeRecords that the annotator's scratch reuses
// across snippets and flushes.
func featurizeInto(f []float64, ptsBuf *[]geom.Point, recs []position.Record, dense bool) []float64 {
	n := len(recs)
	if n == 0 {
		return f
	}
	pts := *ptsBuf
	if cap(pts) < n {
		pts = make([]geom.Point, n)
	} else {
		pts = pts[:n]
	}
	*ptsBuf = pts
	for i, r := range recs {
		pts[i] = r.P
	}
	dur := recs[n-1].At.Sub(recs[0].At).Seconds()

	// Location variance around the centroid.
	c := geom.Centroid(pts)
	var variance float64
	for _, p := range pts {
		variance += p.Dist2(c)
	}
	variance /= float64(n)

	// Step statistics.
	var travel, maxStepSpeed float64
	for i := 1; i < n; i++ {
		d := pts[i-1].Dist(pts[i])
		travel += d
		dt := recs[i].At.Sub(recs[i-1].At).Seconds()
		if dt > 0 {
			if v := d / dt; v > maxStepSpeed {
				maxStepSpeed = v
			}
		}
	}
	net := pts[0].Dist(pts[n-1])

	meanSpeed := 0.0
	if dur > 0 {
		meanSpeed = travel / dur
	}
	cover := geom.MinEnclosingCircle(pts).Radius
	turns := (geom.Polyline{Points: pts}).TurnCount(math.Pi / 4)
	turnDensity := 0.0
	if travel > 1 {
		turnDensity = float64(turns) / travel
	}
	straight := 0.0
	if travel > geom.Eps {
		straight = net / travel
	}
	denseF := 0.0
	if dense {
		denseF = 1
	}

	f[0] = dur
	f[1] = float64(n)
	f[2] = variance
	f[3] = travel
	f[4] = net
	f[5] = meanSpeed
	f[6] = maxStepSpeed
	f[7] = cover
	f[8] = float64(turns)
	f[9] = turnDensity
	f[10] = straight
	f[11] = denseF
	return f
}

// Scaler standardizes feature vectors to zero mean and unit variance, fitted
// on training data. Constant features scale to zero.
type Scaler struct {
	Mean []float64 `json:"mean"`
	Std  []float64 `json:"std"`
}

// FitScaler learns per-dimension statistics from X.
func FitScaler(X [][]float64) *Scaler {
	if len(X) == 0 {
		return &Scaler{}
	}
	d := len(X[0])
	sc := &Scaler{Mean: make([]float64, d), Std: make([]float64, d)}
	for _, x := range X {
		for j, v := range x {
			sc.Mean[j] += v
		}
	}
	n := float64(len(X))
	for j := range sc.Mean {
		sc.Mean[j] /= n
	}
	for _, x := range X {
		for j, v := range x {
			dv := v - sc.Mean[j]
			sc.Std[j] += dv * dv
		}
	}
	for j := range sc.Std {
		sc.Std[j] = math.Sqrt(sc.Std[j] / n)
	}
	return sc
}

// Transform returns the standardized copy of x.
func (sc *Scaler) Transform(x []float64) []float64 {
	return sc.transformInto(make([]float64, len(x)), x)
}

// transformInto standardizes x into out (len(x), zeroed by the caller).
func (sc *Scaler) transformInto(out, x []float64) []float64 {
	if len(sc.Mean) == 0 {
		copy(out, x)
		return out
	}
	for j, v := range x {
		if sc.Std[j] > 1e-12 {
			out[j] = (v - sc.Mean[j]) / sc.Std[j]
		}
	}
	return out
}

// TransformAll standardizes a whole design matrix.
func (sc *Scaler) TransformAll(X [][]float64) [][]float64 {
	out := make([][]float64, len(X))
	for i, x := range X {
		out[i] = sc.Transform(x)
	}
	return out
}
