package annotation

import (
	"testing"
	"time"

	"trips/internal/dsm"
	"trips/internal/geom"
	"trips/internal/position"
)

// referenceDense is the density mask straight from the definition, on
// time.Time: a record is dense when at least MinPts records (itself
// included) on its floor lie within EpsSpace and EpsTime of it.
func referenceDense(recs []position.Record, cfg SplitConfig) []bool {
	dense := make([]bool, len(recs))
	for i, r := range recs {
		cnt := 0
		for _, q := range recs {
			d := q.At.Sub(r.At) // saturates at the Duration range
			if d >= -cfg.EpsTime && d <= cfg.EpsTime && q.Floor == r.Floor && r.P.Dist(q.P) <= cfg.EpsSpace {
				cnt++
			}
		}
		dense[i] = cnt >= cfg.MinPts
	}
	return dense
}

// datedTail is dwells and walks from start, the gaps between them drawn
// from gaps in turn: some inside EpsTime, some between EpsTime and MaxGap,
// some beyond both.
func datedTail(g *lcg, start time.Time, gaps []time.Duration) []position.Record {
	var out []position.Record
	at := start
	for k, gap := range gaps {
		var rs []position.Record
		if k%2 == 0 {
			rs = stayRecords(g, geom.Pt(5, 15), dsm.FloorID(1+k%3/2), at, 12, 5*time.Second)
		} else {
			rs = walkRecords(g, geom.Pt(5, 7), geom.Pt(27, 7), 1, at, 2*time.Second)
		}
		out = append(out, rs...)
		at = rs[len(rs)-1].At.Add(gap)
	}
	return out
}

// TestColumnClockMatchesTime: the splitter's density flags and cuts, read
// off the 8-byte column clock, equal a reference computed on time.Time for
// tails at both ends of the calendar — year 1 and year 9999, both outside
// what UnixNano can hold — for a tail that jumps between them, for a tail
// of century-long gaps, and for one whose halves lie exactly 2^64 ns apart,
// which a wrapping nanosecond count would read as simultaneous. The column projection is also synced
// incrementally, the way a growing tail is, and must read the same.
func TestColumnClockMatchesTime(t *testing.T) {
	cfg := DefaultSplitConfig()
	gaps := []time.Duration{
		30 * time.Second, 2 * time.Minute, 10 * time.Minute, 5 * time.Second,
		cfg.MaxGap, cfg.EpsTime, cfg.MaxGap + 1, 3 * time.Hour, 45 * time.Second, time.Minute,
	}
	year1 := time.Date(1, 1, 1, 0, 0, 0, 0, time.UTC)
	year9999 := time.Date(9999, 12, 31, 20, 0, 0, 0, time.UTC)
	centuries := make([]time.Duration, 12)
	for i := range centuries {
		centuries[i] = 100 * 365 * 24 * time.Hour
	}
	g := lcg(5)
	tails := []struct {
		name string
		recs []position.Record
	}{
		{"year 1", datedTail(&g, year1, gaps)},
		{"year 9999", datedTail(&g, year9999, gaps)},
		{"year 1 to year 9999", append(datedTail(&g, year1, gaps[:5]),
			datedTail(&g, year9999.Add(-2*time.Hour), gaps[5:])...)},
		{"centuries apart", datedTail(&g, year1, centuries)},
		{"2^64 ns apart", append(datedTail(&g, year1, gaps[:5]),
			datedTail(&g, year1.Add(1<<62).Add(1<<62).Add(1<<62).Add(1<<62), gaps[5:])...)},
	}
	for _, tail := range tails {
		name, recs := tail.name, tail.recs
		n := len(recs)
		want := referenceDense(recs, cfg)
		smooth := make([]bool, n)
		for i := range want {
			smooth[i] = smoothedAt(want, i)
		}

		var full, grown position.Columns
		full.Sync(recs, 0, cfg.clockWindow())
		grown.Sync(recs[:n/2], 0, cfg.clockWindow())
		grown.Sync(recs, n/2, cfg.clockWindow())
		for _, sync := range []struct {
			label string
			cols  *position.Columns
		}{{"full", &full}, {"grown", &grown}} {
			label, cols := sync.label, sync.cols
			got := make([]bool, n)
			denseMaskRange(cols, cfg, got, 0)
			// Refresh a window the way a flush does, from mid-tail.
			for i := n / 3; i < n; i++ {
				got[i] = !got[i]
			}
			denseMaskRange(cols, cfg, got, n/3)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s, %s sync: record %d (%s) dense = %v, time.Time reference %v",
						name, label, i, recs[i].At.Format(time.RFC3339), got[i], want[i])
				}
			}
			for i := 1; i < n; i++ {
				wantCut := smooth[i] != smooth[i-1] || recs[i].Floor != recs[i-1].Floor ||
					recs[i].At.Sub(recs[i-1].At) > cfg.MaxGap
				if cutAt(cols, smooth, cfg.MaxGap, i) != wantCut {
					t.Fatalf("%s, %s sync: cut before record %d (%s) = %v, time.Time reference %v",
						name, label, i, recs[i].At.Format(time.RFC3339), !wantCut, wantCut)
				}
			}
		}
	}
}
