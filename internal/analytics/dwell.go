package analytics

import (
	"time"

	"trips/internal/dsm"
)

// dwellBounds are the fixed upper bounds of the dwell histogram buckets
// (the last bucket is open-ended). Exponential-ish spacing keeps short
// pass-bys and multi-hour stays both resolvable with a handful of buckets.
var dwellBounds = [...]time.Duration{
	5 * time.Second, 15 * time.Second, 30 * time.Second,
	time.Minute, 2 * time.Minute, 5 * time.Minute, 10 * time.Minute,
	20 * time.Minute, 30 * time.Minute, time.Hour, 2 * time.Hour,
}

// histogram is one region's dwell-time distribution: fixed buckets plus the
// exact sum/count for the mean. The zero value is an empty histogram.
type histogram struct {
	buckets [len(dwellBounds) + 1]int64
	count   int64
	sum     time.Duration
	max     time.Duration
}

func bucketFor(d time.Duration) int {
	for i, b := range dwellBounds {
		if d <= b {
			return i
		}
	}
	return len(dwellBounds)
}

//trips:zeroalloc
func (h *histogram) observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.buckets[bucketFor(d)]++
	h.count++
	h.sum += d
	if d > h.max {
		h.max = d
	}
}

// quantile estimates the q-quantile (0 < q < 1) by linear interpolation
// inside the covering bucket. The open last bucket interpolates toward the
// observed maximum.
func (h *histogram) quantile(q float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	target := q * float64(h.count)
	var cum float64
	for i, n := range h.buckets {
		if n == 0 {
			continue
		}
		next := cum + float64(n)
		if target <= next {
			lo := time.Duration(0)
			if i > 0 {
				lo = dwellBounds[i-1]
			}
			hi := h.max
			if i < len(dwellBounds) {
				hi = dwellBounds[i]
			}
			if hi < lo {
				hi = lo
			}
			frac := (target - cum) / float64(n)
			return lo + time.Duration(frac*float64(hi-lo))
		}
		cum = next
	}
	return h.max
}

// DwellBucket is one histogram bucket of the dwell view.
type DwellBucket struct {
	// UpTo is the bucket's inclusive upper bound; zero marks the open
	// last bucket.
	UpTo  time.Duration `json:"upTo"`
	Count int64         `json:"count"`
}

// DwellStats is the dwell-time summary of one region.
type DwellStats struct {
	RegionID dsm.RegionID  `json:"regionId"`
	Region   string        `json:"region,omitempty"`
	Count    int64         `json:"count"`
	Mean     time.Duration `json:"mean"`
	P50      time.Duration `json:"p50"`
	P90      time.Duration `json:"p90"`
	P99      time.Duration `json:"p99"`
	Max      time.Duration `json:"max"`
	Buckets  []DwellBucket `json:"buckets"`
}

func (h *histogram) stats(region dsm.RegionID, tag string) DwellStats {
	st := DwellStats{
		RegionID: region,
		Region:   tag,
		Count:    h.count,
		Mean:     h.sum / time.Duration(h.count),
		P50:      h.quantile(0.50),
		P90:      h.quantile(0.90),
		P99:      h.quantile(0.99),
		Max:      h.max,
	}
	for i, n := range h.buckets {
		if n == 0 {
			continue
		}
		var upTo time.Duration
		if i < len(dwellBounds) {
			upTo = dwellBounds[i]
		}
		st.Buckets = append(st.Buckets, DwellBucket{UpTo: upTo, Count: n})
	}
	return st
}
