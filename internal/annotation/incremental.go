package annotation

import (
	"sort"

	"trips/internal/intern"
	"trips/internal/position"
	"trips/internal/semantics"
)

// Incremental is the staged annotator: it re-annotates a cleaned sequence
// that grows between calls in time proportional to the new suffix. It is
// the only implementation of splitting and annotation — Split and
// Annotator.Annotate run it cold. Create one per growing sequence with
// NewIncremental; not safe for concurrent use.
//
// Every stage caches what a new suffix provably cannot have changed:
//
//   - density flags are final once the watermark is more than EpsTime past
//     a record (one more record of slack for the majority smoothing);
//   - per-record region labels and split cuts depend only on record values,
//     so they are final below the caller's stable index; cached pre-merge
//     snippets wholly below the refreshed window are reused without
//     re-scanning their cuts;
//   - refined region-snippets and the final triplets are reused through an
//     aligned-prefix comparison: a snippet or consolidated group whose
//     extent, density class, and region identity are unchanged — and whose
//     records all lie below the stable index — annotates to the identical
//     triplet, so the cached one is emitted without re-running the
//     classifier.
//
// The remaining whole-tail work is copies between reused buffers and the
// cheap structural scans (tiny-snippet merge, consolidation, prefix
// comparison) over per-snippet lists; every per-record pass — density
// neighborhoods, region point location, cut detection, feature extraction,
// classification — is confined to the suffix.
type Incremental struct {
	a      *Annotator
	cfg    SplitConfig // resolved, like Split resolves it
	suffix bool        // sequences are trimmed suffixes: no tiny-head merge

	n       int              // records covered by the last call
	cols    position.Columns // struct-of-arrays projection of the records
	raw     []bool           // pre-smooth density flags
	sm      []bool           // smoothed density flags
	densePS []int            // prefix sums of sm, len n+1
	labels  []intern.ID

	snips             []Snippet       // pre-merge snippet list of the last call
	snipsScratch      []Snippet       // double buffer for snips
	merged            []Snippet       // post-merge snippets of the last call
	mergedScratch     []Snippet       // double buffer for merged
	refined           []regionSnippet // refined+matched snippets of the last call
	refinedScratch    []regionSnippet
	refinedEnd        []int // per merged snippet, end index into refined
	refinedEndScratch []int
	groups            []regionSnippet // consolidated groups of the last call
	groupsScratch     []regionSnippet
	trips             []semantics.Triplet
	tripsScratch      []semantics.Triplet

	rs  refineScratch      // refine/match buffers
	sc  Scratch            // classifier buffers
	out semantics.Sequence // reused output sequence
}

// NewIncremental returns an incremental annotator bound to a's
// configuration and model.
func (a *Annotator) NewIncremental() *Incremental {
	return &Incremental{a: a, cfg: a.Cfg.Split.resolved()}
}

// Reset drops every cache and its buffers; the next Annotate recomputes
// from scratch. The buffers go too because the sequence that follows is
// usually much shorter — a tail after a MaxTail trim — and doubled capacity
// sized to the old one would stay pinned for the cache's life. suffix
// records whether the sequences that follow are trimmed suffixes of a
// longer stream (the online engine's tail after a trim): their first
// snippet is not the true sequence head, so the tiny-head forward merge
// does not apply to it. The sequence the last Annotate returned is
// invalid after Reset.
func (inc *Incremental) Reset(suffix bool) {
	*inc = Incremental{a: inc.a, cfg: inc.cfg, suffix: suffix}
}

// Annotate returns the annotation of s: split, spatially match, consolidate
// same-region fragments, then identify one event per consolidated snippet.
// stable is the caller's frozen-prefix hint: records with index below it
// are unchanged — same values, same positions — since the previous call on
// this Incremental (0 forces a full recompute). The returned sequence is
// owned by the cache and reused: it and its triplet slice are valid only
// until the next Annotate or Reset call.
//
// Consolidation happens BEFORE event identification on purpose: positioning
// dropouts fragment one long dwell into several snippets, and duration-
// sensitive event patterns (a one-hour meeting vs a five-minute errand) can
// only be recognized on the whole dwell.
func (inc *Incremental) Annotate(s *position.Sequence, stable int) *semantics.Sequence {
	out := &inc.out
	out.Device = string(s.Device)
	out.Triplets = out.Triplets[:0]
	n := s.Len()
	if n == 0 {
		inc.n = 0
		return out
	}
	if n < inc.n || stable > inc.n {
		stable = 0 // shrunk or inconsistent hint: recompute everything
	}
	merged := inc.split(s, stable)

	// Per-record region labels (point location); value-local, so only the
	// suffix re-resolves. The split does not read them.
	inc.labels = inc.a.labelRecords(s, inc.labels, stable)

	// Refine + spatial match, reusing the aligned cached prefix. A merged
	// snippet with the same extent and density class, fully below the
	// stable index, refines and matches to the identical sub-snippets.
	keep := 0
	for keep < len(merged) && keep < len(inc.merged) && keep < len(inc.refinedEnd) {
		a, b := merged[keep], inc.merged[keep]
		if a.First != b.First || a.Last != b.Last || a.Dense != b.Dense || a.Last >= stable {
			break
		}
		keep++
	}
	refined := inc.refinedScratch[:0]
	refinedEnd := inc.refinedEndScratch[:0]
	if keep > 0 {
		refined = append(refined, inc.refined[:inc.refinedEnd[keep-1]]...)
		refinedEnd = append(refinedEnd, inc.refinedEnd[:keep]...)
	}
	for _, sn := range merged[keep:] {
		refined = inc.a.refineSnippet(s, sn, inc.labels, refined, &inc.rs)
		refinedEnd = append(refinedEnd, len(refined))
	}

	// Same-region consolidation (cheap scan), then the triplets, reusing
	// the aligned cached prefix of unchanged groups.
	groups := inc.a.consolidateInto(s, refined, inc.groupsScratch[:0])
	keepG := 0
	for keepG < len(groups) && keepG < len(inc.groups) && keepG < len(inc.trips) {
		a, b := groups[keepG], inc.groups[keepG]
		if a.sn.First != b.sn.First || a.sn.Last != b.sn.Last || a.sn.Dense != b.sn.Dense ||
			a.tag != b.tag || a.rid != b.rid || a.sn.Last >= stable {
			break
		}
		keepG++
	}
	trips := append(inc.tripsScratch[:0], inc.trips[:keepG]...)
	for _, g := range groups[keepG:] {
		trips = append(trips, inc.a.annotateSnippet(g, &inc.sc))
	}

	// Swap the double buffers and publish the caches.
	inc.refinedScratch, inc.refined = inc.refined, refined
	inc.refinedEndScratch, inc.refinedEnd = inc.refinedEnd, refinedEnd
	inc.merged, inc.mergedScratch = merged, inc.merged
	inc.tripsScratch, inc.trips = inc.trips, trips
	inc.groups, inc.groupsScratch = groups, inc.groups
	inc.n = n

	for _, t := range inc.trips {
		out.Append(t)
	}
	return out
}

// split is the density-based splitting of a non-empty s: density flags,
// cuts at density-class, floor and long-gap changes, then the tiny-snippet
// merge. It refreshes the flags and cuts only from where records at or
// after stable can have moved them, and returns the merged snippets in
// inc.mergedScratch, which Annotate publishes as the next call's cache.
func (inc *Incremental) split(s *position.Sequence, stable int) []Snippet {
	n := s.Len()
	// Refresh the column projection for the changed suffix; the per-record
	// scans below read it instead of the full Record rows.
	inc.cols.Sync(s.Records, stable)

	// Density flags. A changed or new record sits at index ≥ stable, hence
	// (time-sorted) at or after At(stable); raw flags of records more than
	// EpsTime before that instant keep their neighborhoods. The smoothing
	// window adds one record of slack.
	f0 := n
	if stable < n {
		limit := inc.cols.At[stable].Add(-inc.cfg.EpsTime)
		f0 = sort.Search(n, func(i int) bool { return !inc.cols.At[i].Before(limit) })
		if f0 > stable {
			f0 = stable
		}
	}
	if stable == 0 {
		f0 = 0
	}
	inc.raw = growBools(inc.raw, n)
	inc.sm = growBools(inc.sm, n)
	denseMaskRange(&inc.cols, inc.cfg, inc.raw, f0)
	s0 := f0 - 1
	if s0 < 0 {
		s0 = 0
	}
	for i := s0; i < n; i++ {
		inc.sm[i] = smoothedAt(inc.raw, i)
	}
	if cap(inc.densePS) < n+1 {
		ps := make([]int, n+1, 2*(n+1)) // slack: the tail grows every flush
		copy(ps, inc.densePS)
		inc.densePS = ps
	} else {
		inc.densePS = inc.densePS[:n+1]
	}
	for i := s0; i < n; i++ {
		d := 0
		if inc.sm[i] {
			d = 1
		}
		inc.densePS[i+1] = inc.densePS[i] + d
	}

	// Cuts and the pre-merge snippet list. A cut at index i reads records
	// i-1 and i and their smoothed flags, all unchanged below s0 (s0 <
	// stable whenever stable > 0), so every cached snippet whose closing cut
	// sits below s0 is reused verbatim — except the final one, whose end was
	// the end of the sequence rather than a cut — and the per-record scan
	// resumes at the first boundary that may have moved.
	snips := inc.snipsScratch[:0]
	start := 0
	keepS := 0
	for keepS < len(inc.snips)-1 && inc.snips[keepS].Last+1 < s0 {
		keepS++
	}
	if keepS > 0 {
		snips = append(snips, inc.snips[:keepS]...)
		start = inc.snips[keepS-1].Last + 1
	}
	for i := start + 1; i < n; i++ {
		if cutAt(&inc.cols, inc.sm, inc.cfg.MaxGap, i) {
			snips = append(snips, inc.makeSnippet(s, start, i-1))
			start = i
		}
	}
	snips = append(snips, inc.makeSnippet(s, start, n-1))
	inc.snips, inc.snipsScratch = snips, inc.snips

	return mergeTinyInto(s, snips, inc.cfg, inc.mergedScratch[:0], !inc.suffix)
}

// makeSnippet builds the snippet of records [first, last], its density
// majority answered by the smoothed-flag prefix sums.
func (inc *Incremental) makeSnippet(s *position.Sequence, first, last int) Snippet {
	cnt := inc.densePS[last+1] - inc.densePS[first]
	return Snippet{
		First:   first,
		Last:    last,
		Records: s.Records[first : last+1],
		Dense:   cnt*2 >= last-first+1,
	}
}

// growBools resizes buf to n entries, keeping existing values. Growth
// doubles capacity: a session tail grows by a few records per flush, and
// exact-size growth would reallocate-and-copy the whole array every flush.
func growBools(buf []bool, n int) []bool {
	if cap(buf) < n {
		grown := make([]bool, n, 2*n)
		copy(grown, buf)
		return grown
	}
	return buf[:n]
}
