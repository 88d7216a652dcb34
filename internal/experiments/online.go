package experiments

import (
	"time"

	"trips/internal/geom"
	"trips/internal/position"
	"trips/internal/simul"
)

// lcg is a tiny deterministic generator for workload jitter, so the online
// workloads replay the identical record stream on every run.
type lcg uint64

func (g *lcg) next() float64 {
	*g = *g*6364136223846793005 + 1442695040888963407
	return float64(*g>>11) / float64(1<<53)
}

// LongSessionRecords synthesizes one device's continuous journey of exactly
// n records: repeated dwells at the mall's shop regions with hall walks in
// between, sampled every 5 seconds with positioning jitter, never pausing
// longer than the split MaxGap. The session therefore stays alive the whole
// time — no hard break ever trims its tail — which is exactly the workload
// where per-flush recompute cost over the tail dominates: bench/'s
// longtail-saturate workload feeds it at multi-thousand-record tails, to
// verify flush cost tracks the new suffix, not the tail.
//
//trips:api bench/ is a separate module and calls it
func LongSessionRecords(env *Env, dev position.DeviceID, n int) []position.Record {
	const period = 5 * time.Second
	regs := simul.ShopRegions(env.Model)
	// Single-floor itinerary: cross-floor legs would add elevator dwells
	// that distract from the flush-cost measurement.
	floor := regs[0].Floor
	var centers []geom.Point
	for _, r := range regs {
		if r.Floor == floor {
			centers = append(centers, r.Center())
		}
	}
	g := lcg(11)
	out := make([]position.Record, 0, n)
	at := Start
	emit := func(p geom.Point) {
		out = append(out, position.Record{Device: dev, P: p, Floor: floor, At: at})
		at = at.Add(period)
	}
	for i := 0; len(out) < n; i++ {
		// Dwell: ~3.5 minutes of jittered samples around the shop center.
		c := centers[i%len(centers)]
		for s := 0; s < 42 && len(out) < n; s++ {
			emit(geom.Pt(c.X+(g.next()-0.5)*2, c.Y+(g.next()-0.5)*2))
		}
		// Walk to the next shop at ~1.4 m/s.
		next := centers[(i+1)%len(centers)]
		steps := int(c.Dist(next)/(1.4*period.Seconds())) + 1
		for s := 1; s <= steps && len(out) < n; s++ {
			t := float64(s) / float64(steps)
			p := c.Lerp(next, t)
			emit(geom.Pt(p.X+(g.next()-0.5)*0.8, p.Y+(g.next()-0.5)*0.8))
		}
	}
	return out
}
