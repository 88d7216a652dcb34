// Package annotation implements the Annotation layer of the TRIPS
// three-layer translation framework (paper Fig. 3) — the Mobility Semantics
// Annotator module.
//
// "A density-based splitting obtains a number of data snippets by clustering
// positioning records with respect to their spatio-temporal attributes. A
// semantic matching matches each snippet to a set of mobility semantics by
// making annotations as follows. The event and temporal annotations are made
// by a learning-based identification model ... The feature extraction
// considers the information of positioning location variance, traveling
// distance and speed, covering range, number of turns, etc. The spatial
// annotation is made by matching the semantic regions in the DSM."
//
// The package therefore has four parts: the density-based splitter
// (split.go), the movement feature extractor (features.go), the from-scratch
// learning models (model.go: Gaussian naive Bayes, multinomial logistic
// regression, CART decision tree), and the Annotator that combines event
// identification with semantic-region matching (annotate.go).
//
// Every step has one implementation, the staged Incremental annotator
// (incremental.go). The batch entry points, Split and Annotator.Annotate,
// run it cold on a fresh cache; the online engine keeps one per session and
// runs it warm, recomputing only what a new suffix can have changed.
package annotation

import (
	"slices"
	"sort"
	"time"

	"trips/internal/position"
)

// SplitConfig parameterizes the density-based splitting.
type SplitConfig struct {
	// EpsSpace is the spatial neighborhood radius in meters.
	EpsSpace float64
	// EpsTime is the temporal neighborhood radius.
	EpsTime time.Duration
	// MinPts is the minimum number of spatio-temporal neighbors
	// (including the record itself) for a record to count as dense.
	MinPts int
	// MaxGap splits unconditionally when consecutive records are further
	// apart in time.
	MaxGap time.Duration
	// MinSnippet merges runs shorter than this many records into their
	// predecessor, suppressing classification jitter.
	MinSnippet int
}

// DefaultSplitConfig matches Wi-Fi indoor sampling (3–10 s period,
// 2–3 m noise).
func DefaultSplitConfig() SplitConfig {
	return SplitConfig{
		EpsSpace:   4.0,
		EpsTime:    90 * time.Second,
		MinPts:     4,
		MaxGap:     5 * time.Minute,
		MinSnippet: 3,
	}
}

// Snippet is a contiguous run of records produced by the splitting, the unit
// the identification model classifies.
type Snippet struct {
	// First and Last index the covered records in the cleaned sequence,
	// inclusive.
	First, Last int
	// Records aliases the cleaned sequence's backing array.
	Records []position.Record
	// Dense reports whether the majority of the snippet's records are
	// density-core (dwelling-like) — an input feature, not a judgment.
	Dense bool
}

// Duration returns the snippet's time span.
func (sn Snippet) Duration() time.Duration {
	if len(sn.Records) == 0 {
		return 0
	}
	return sn.Records[len(sn.Records)-1].At.Sub(sn.Records[0].At)
}

// resolved applies Split's fallback rule: an unusable neighborhood
// configuration selects the defaults wholesale.
func (cfg SplitConfig) resolved() SplitConfig {
	if cfg.EpsSpace <= 0 || cfg.MinPts <= 0 {
		return DefaultSplitConfig()
	}
	return cfg
}

// clockWindow is the longest interval the splitter compares timestamps
// against, the window its column clock keeps exact.
func (cfg SplitConfig) clockWindow() time.Duration { return max(cfg.EpsTime, cfg.MaxGap) }

// Split performs the density-based spatio-temporal splitting of a cleaned
// sequence into snippets: the incremental annotator's splitter run cold.
//
//trips:api bench/ is a separate module and calls it
func Split(s *position.Sequence, cfg SplitConfig) []Snippet {
	if s.Len() == 0 {
		return nil
	}
	return (&Incremental{cfg: cfg.resolved()}).split(s, 0)
}

// cutAt reports whether the splitter cuts between records i-1 and i:
// density class change, floor change, or a long time gap.
//
//trips:zeroalloc
func cutAt(c *position.Columns, dense []bool, maxGap time.Duration, i int) bool {
	return dense[i] != dense[i-1] ||
		c.Floor[i] != c.Floor[i-1] ||
		c.At[i]-c.At[i-1] > int64(maxGap)
}

// denseMaskRange marks each record in [from, n) that has at least MinPts
// spatio-temporal neighbors, writing into dense (which spans the whole
// run): the windowed form lets the incremental annotator refresh only the
// flags a new suffix can have touched. from == n is a valid empty window
// (an unchanged sequence re-annotated). The scan window exploits time
// ordering — only records within EpsTime can be neighbors — and reads the
// struct-of-arrays projection, so the O(n·window) neighborhood scan touches
// timestamps and points only, at column stride.
func denseMaskRange(c *position.Columns, cfg SplitConfig, dense []bool, from int) {
	n := c.Len()
	if from >= n {
		return
	}
	eps := int64(cfg.EpsTime)
	lo := 0
	if from > 0 {
		at := c.At[from]
		lo = sort.Search(from, func(j int) bool {
			return at-c.At[j] <= eps
		})
	}
	for i := from; i < n; i++ {
		ti, fi, pi := c.At[i], c.Floor[i], c.P[i]
		for ti-c.At[lo] > eps {
			lo++
		}
		dense[i] = false
		cnt := 0
		for j := lo; j < n; j++ {
			if c.At[j]-ti > eps {
				break
			}
			if c.Floor[j] == fi && pi.Dist(c.P[j]) <= cfg.EpsSpace {
				cnt++
				if cnt >= cfg.MinPts {
					dense[i] = true
					break
				}
			}
		}
	}
}

// smoothedAt is the 3-wide majority filter that suppresses single-record
// density flips, evaluated at index i over the unfiltered flags: the
// incremental annotator keeps raw and smoothed flags separate so it can
// refresh a window without replaying the whole filter.
//
//trips:zeroalloc
func smoothedAt(raw []bool, i int) bool {
	if i == 0 || i == len(raw)-1 {
		return raw[i]
	}
	if raw[i-1] == raw[i+1] && raw[i] != raw[i-1] {
		return raw[i-1]
	}
	return raw[i]
}

// TinyJoinGap is the maximum hand-off gap for folding a tiny snippet into a
// neighbor. Exported so the online engine can size its seal horizon: once a
// snippet's end is further than this behind the watermark, no future record
// can merge backward into it.
const TinyJoinGap = 5 * time.Minute

// mergeTinyInto folds runs shorter than MinSnippet records or 10 seconds
// into their predecessor, re-deriving the density majority, and appends the
// result to dst — a buffer separate from sn, so the pre-merge list survives
// as the incremental annotator's cut cache. Floor-change and gap cuts are
// preserved: a tiny run is only merged into a neighbor on the same floor
// with a small join gap. With headMerge a tiny head merges forward into its
// successor; a trimmed suffix passes false, because its first snippet is
// not the true sequence head.
func mergeTinyInto(s *position.Sequence, sn []Snippet, cfg SplitConfig, dst []Snippet, headMerge bool) []Snippet {
	minLen := cfg.MinSnippet
	if minLen <= 1 || len(sn) <= 1 {
		return append(dst, sn...)
	}
	tiny := func(x Snippet) bool {
		return len(x.Records) < minLen || x.Duration() < 10*time.Second
	}
	out := dst
	for _, cur := range sn {
		if len(out) > 0 && tiny(cur) && joinable(out[len(out)-1], cur) {
			out[len(out)-1] = joinSnippets(s, out[len(out)-1], cur)
			continue
		}
		out = append(out, cur)
	}
	// A tiny head merges forward. The list shifts down rather than
	// reslicing past its head, so it keeps starting at dst's first slot.
	if headMerge && len(out) > 1 && tiny(out[0]) && joinable(out[0], out[1]) {
		out[0] = joinSnippets(s, out[0], out[1])
		out = slices.Delete(out, 1, 2)
	}
	return out
}

func joinable(a, b Snippet) bool {
	la := a.Records[len(a.Records)-1]
	fb := b.Records[0]
	return la.Floor == fb.Floor && fb.At.Sub(la.At) <= TinyJoinGap
}

func joinSnippets(s *position.Sequence, a, b Snippet) Snippet {
	j := Snippet{First: a.First, Last: b.Last, Records: s.Records[a.First : b.Last+1]}
	// Density majority by length.
	if (a.Dense && len(a.Records) >= len(b.Records)) || (b.Dense && len(b.Records) > len(a.Records)) {
		j.Dense = true
	}
	return j
}
