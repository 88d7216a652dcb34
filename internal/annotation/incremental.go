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
//
// The Incremental holds one copy of each cache and nothing else: what a
// call only needs while it runs lives in its Work.
type Incremental struct {
	a      *Annotator
	cfg    SplitConfig // resolved, like Split resolves it
	suffix bool        // sequences are trimmed suffixes: no tiny-head merge

	// Work is the scratch Annotate builds in. Incrementals whose calls
	// never overlap may share one; nil means a private one, allocated on
	// first use.
	Work *Work

	n       int              // records covered by the last call
	cols    position.Columns // struct-of-arrays projection of the records
	raw     []bool           // pre-smooth density flags
	sm      []bool           // smoothed density flags
	densePS []int            // prefix sums of sm, len n+1
	labels  []intern.ID

	// The snippet caches of the last call. snips, refined, refinedEnd and
	// trips are rebuilt in place — a call keeps a prefix of each and
	// appends after it — while merged and groups are rebuilt whole in the
	// Work and copied in, because the call compares the new list with the
	// cached one. Every cached snippet aliases the record array the last
	// call was given, never an older one.
	snips      []Snippet       // pre-merge snippets
	merged     []Snippet       // post-merge snippets
	refined    []regionSnippet // refined+matched snippets
	refinedEnd []int           // per merged snippet, end index into refined
	groups     []regionSnippet // consolidated groups
	trips      []semantics.Triplet

	out semantics.Sequence // the returned sequence; its Triplets alias trips
}

// Work is the scratch of one Annotate call: the merged and consolidated
// snippet lists it builds before publishing them to the cache, and the
// refine and classifier buffers. Nothing in it is read across calls and it
// is left holding no records, so every Incremental whose calls never
// overlap can share one — the online engine gives each shard a single Work
// for all its sessions.
type Work struct {
	merged []Snippet
	groups []regionSnippet
	rs     refineScratch
	sc     Scratch
}

// NewIncremental returns an incremental annotator bound to a's
// configuration and model.
func (a *Annotator) NewIncremental() *Incremental {
	return &Incremental{a: a, cfg: a.Cfg.Split.resolved()}
}

// Reset drops every cache and its buffers; the next Annotate recomputes
// from scratch. The buffers go too because the sequence that follows is
// usually much shorter — a tail after a MaxTail trim — and doubled capacity
// sized to the old one would stay pinned for the cache's life. The Work is
// kept: it is scratch, possibly shared. suffix records whether the
// sequences that follow are trimmed suffixes of a longer stream (the online
// engine's tail after a trim): their first snippet is not the true sequence
// head, so the tiny-head forward merge does not apply to it. The sequence
// the last Annotate returned is invalid after Reset.
func (inc *Incremental) Reset(suffix bool) {
	*inc = Incremental{a: inc.a, cfg: inc.cfg, suffix: suffix, Work: inc.Work}
}

// Annotate returns the annotation of s: split, spatially match, consolidate
// same-region fragments, then identify one event per consolidated snippet.
// stable is the caller's frozen-prefix hint: records with index below it
// are unchanged — same values, same positions — since the previous call on
// this Incremental (0 forces a full recompute). The records may have moved
// to a new array in between; the caches follow them. The returned sequence
// is owned by the cache and reused: it and its triplet slice are valid only
// until the next Annotate or Reset call.
//
// Consolidation happens BEFORE event identification on purpose: positioning
// dropouts fragment one long dwell into several snippets, and duration-
// sensitive event patterns (a one-hour meeting vs a five-minute errand) can
// only be recognized on the whole dwell.
func (inc *Incremental) Annotate(s *position.Sequence, stable int) *semantics.Sequence {
	out := &inc.out
	out.Device = string(s.Device)
	n := s.Len()
	if n == 0 {
		inc.n = 0
		out.Triplets = nil
		return out
	}
	if n < inc.n || stable > inc.n {
		stable = 0 // shrunk or inconsistent hint: recompute everything
	}
	merged := inc.split(s, stable)
	w := inc.Work

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
	kept := 0
	if keep > 0 {
		kept = inc.refinedEnd[keep-1]
	}
	refined := inc.refined[:kept]
	clear(inc.refined[kept:])
	for i := range refined {
		repoint(s, &refined[i].sn)
	}
	refinedEnd := inc.refinedEnd[:keep]
	for _, sn := range merged[keep:] {
		refined = inc.a.refineSnippet(s, sn, inc.labels, refined, &w.rs)
		refinedEnd = append(refinedEnd, len(refined))
	}

	// Same-region consolidation (cheap scan), then the triplets, reusing
	// the aligned cached prefix of unchanged groups.
	groups := inc.a.consolidateInto(s, refined, w.groups[:0])
	keepG := 0
	for keepG < len(groups) && keepG < len(inc.groups) && keepG < len(inc.trips) {
		a, b := groups[keepG], inc.groups[keepG]
		if a.sn.First != b.sn.First || a.sn.Last != b.sn.Last || a.sn.Dense != b.sn.Dense ||
			a.tag != b.tag || a.rid != b.rid || a.sn.Last >= stable {
			break
		}
		keepG++
	}
	trips := inc.trips[:keepG]
	for _, g := range groups[keepG:] {
		trips = append(trips, inc.a.annotateSnippet(g, &w.sc))
	}

	// Publish the caches.
	inc.refined, inc.refinedEnd, inc.trips = refined, refinedEnd, trips
	inc.merged, w.merged = publish(inc.merged, merged), merged[:0]
	inc.groups, w.groups = publish(inc.groups, groups), groups[:0]
	inc.n = n

	out.Triplets = inc.trips
	return out
}

// split is the density-based splitting of a non-empty s: density flags,
// cuts at density-class, floor and long-gap changes, then the tiny-snippet
// merge. It refreshes the flags and cuts only from where records at or
// after stable can have moved them, and returns the merged snippets built
// in the Work, which Annotate publishes as the next call's cache.
func (inc *Incremental) split(s *position.Sequence, stable int) []Snippet {
	if inc.Work == nil {
		inc.Work = new(Work)
	}
	n := s.Len()
	// Refresh the column projection for the changed suffix; the per-record
	// scans below read it instead of the full Record rows.
	inc.cols.Sync(s.Records, stable, inc.cfg.clockWindow())

	// Density flags. A changed or new record sits at index ≥ stable, hence
	// (time-sorted) at or after At(stable); raw flags of records more than
	// EpsTime before that instant keep their neighborhoods. The smoothing
	// window adds one record of slack.
	f0 := n
	if stable < n {
		at, eps := inc.cols.At[stable], int64(inc.cfg.EpsTime)
		f0 = sort.Search(n, func(i int) bool { return at-inc.cols.At[i] <= eps })
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
	// sits below s0 is kept in place — except the final one, whose end was
	// the end of the sequence rather than a cut — and the per-record scan
	// resumes at the first boundary that may have moved.
	keepS := 0
	for keepS < len(inc.snips)-1 && inc.snips[keepS].Last+1 < s0 {
		keepS++
	}
	snips := inc.snips[:keepS]
	clear(inc.snips[keepS:])
	start := 0
	for i := range snips {
		repoint(s, &snips[i])
	}
	if keepS > 0 {
		start = snips[keepS-1].Last + 1
	}
	for i := start + 1; i < n; i++ {
		if cutAt(&inc.cols, inc.sm, inc.cfg.MaxGap, i) {
			snips = append(snips, inc.makeSnippet(s, start, i-1))
			start = i
		}
	}
	inc.snips = append(snips, inc.makeSnippet(s, start, n-1))

	return mergeTinyInto(s, inc.snips, inc.cfg, inc.Work.merged[:0], !inc.suffix)
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

// repoint aims a cached snippet at its records in s. The cache outlives the
// record array it was built on — a growing tail moves to a larger one — and
// a snippet still aliasing the old array would keep it reachable.
//
//trips:zeroalloc
func repoint(s *position.Sequence, sn *Snippet) {
	sn.Records = s.Records[sn.First : sn.Last+1]
}

// publish copies a list built in the Work into the cache's array and
// zeroes the Work's copy, so the shared scratch keeps no records alive. The
// cache's stale entries past the new length are zeroed for the same reason.
func publish[T any](cache, built []T) []T {
	clear(cache)
	cache = append(cache[:0], built...)
	clear(built)
	return cache
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
