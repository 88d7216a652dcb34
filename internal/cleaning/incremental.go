package cleaning

import (
	"sort"
	"time"

	"trips/internal/position"
)

// State carries the incremental cleaning cache of one growing sequence
// between CleanFrom calls. The zero value is ready for use; Reset reuses the
// allocated buffers for a fresh sequence.
//
// The cache exploits that cleaning is anchor-local: the speed-constraint
// chain anchors forward, a floor fix consults at most the nearest valid
// record on each side, and an invalid run interpolates between its two
// surrounding anchors. Once the sequence extends past a record that every
// sweep pass detected as valid, the cleaned values before it can never
// change again — unless a record is later *inserted* before it, which the
// caller rules out through the insertFloor argument of CleanFrom.
type State struct {
	// n is the number of raw records covered by the last call.
	n int

	// stable is the index below which cleaned values are final: cleaned
	// [0, stable) ends at a valid anchor (cleaned[stable-1]), contains no
	// trailing speed-suspect run, and holds only records the caller
	// guarantees are safe from out-of-order inserts.
	stable int

	// prevStable is the value of stable when the last call started — the
	// index below which that call rewrote nothing. Downstream per-record
	// caches (the incremental annotator's) key their own invalidation on
	// it via StableSince.
	prevStable int

	// cleaned is the full cleaned output of the last call. Indexes below
	// stable are final; the rest is rewritten every call. The backing
	// array is reused across calls, so callers must not hold the returned
	// sequence across CleanFrom calls expecting immutability beyond the
	// stable prefix.
	cleaned []position.Record

	// invalid marks, per cleaned record, whether any sweep pass detected
	// it as a speed-constraint violation. Repaired records keep final
	// values once both their anchors are in the prefix, but they are not
	// valid chain anchors themselves: the stable cut must always end on an
	// unmarked record, or the suffix re-clean would anchor its chain (and
	// its interpolations) on a record the full computation treats as
	// invalid.
	invalid []bool

	// prefixChanges are the report changes with Index < stable, final like
	// the records they describe.
	prefixChanges                                       []Change
	prefixSnapped, prefixFloorFixed, prefixInterpolated int

	// out is the reused output sequence header CleanFrom returns (its
	// Records alias cleaned); like cleaned itself it is valid only until
	// the next call.
	out position.Sequence

	// NoChanges, when set before the first call, suppresses the merged
	// Report.Changes assembly: CleanFrom returns reports with correct
	// counters but nil Changes, and answers per-index repair queries through
	// Repaired instead. The online engine sets it — materializing the
	// full change list was O(total repairs) per flush, the dominant
	// per-flush cost on long sessions — while callers that persist reports
	// leave it off.
	NoChanges bool

	// repaired marks, per cleaned record, whether the record carries a
	// floor fix or an interpolation (snap-only repairs are position-local
	// and don't count). It is the columnar replacement for scanning
	// Report.Changes: [0, stable) is frozen, the suffix is rewritten every
	// call.
	repaired []bool

	// Work is the scratch CleanFrom cleans in. States whose calls never
	// overlap may share one; nil means a private one, allocated on first
	// use.
	Work *Work
}

// Work is the scratch of one CleanFrom call: the anchor+suffix
// sub-sequence it re-cleans, that run's accumulated-invalid marks, the
// backing of its change list, and the sweep's masks and path buffer.
// Nothing in it is read across calls, so every State whose calls never
// overlap can share one — the online engine gives each shard a single Work
// for all its sessions.
type Work struct {
	sub     position.Sequence
	inv     []bool
	chBuf   []Change
	scratch cleanScratch
}

// Reset clears the cache for a fresh sequence, keeping allocated buffers.
func (st *State) Reset() {
	st.n, st.stable, st.prevStable = 0, 0, 0
	st.cleaned = st.cleaned[:0]
	st.invalid = st.invalid[:0]
	st.repaired = st.repaired[:0]
	st.prefixChanges = st.prefixChanges[:0]
	st.prefixSnapped, st.prefixFloorFixed, st.prefixInterpolated = 0, 0, 0
}

// Repaired reports whether cleaned record i carries a floor fix or an
// interpolation from the last call — the per-index view of the report that
// NoChanges suppresses (it is maintained either way).
//
//trips:zeroalloc
func (st *State) Repaired(i int) bool {
	return i >= 0 && i < len(st.repaired) && st.repaired[i]
}

// StableSince returns the index below which the last CleanFrom call left
// the cleaned values untouched — the frozen-prefix hint for downstream
// incremental stages: everything at or past it may have been rewritten
// (even to identical values) by the last call.
func (st *State) StableSince() int { return st.prevStable }

// CleanFrom is the incremental Clean for a sequence that grows between
// calls: it re-cleans only from the last stable anchor forward and stitches
// the suffix onto the cached cleaned prefix, so a flush over a long session
// tail pays for the new suffix instead of the whole tail. The result — the
// cleaned sequence and its report — is the same as Clean(s) would produce
// (change ordering aside: the report lists the cached prefix's repairs
// before the suffix's instead of interleaved by pass).
//
// insertFloor is the caller's admission guarantee: every record appended to
// s after this call will carry At strictly after insertFloor, so records at
// or before it can never be displaced by an out-of-order insert. The stable
// prefix never extends past that point; a zero insertFloor promises nothing
// and keeps every call a full re-clean.
//
// The contract on s across calls with one State: records below the previous
// call's stable index are unchanged; new records are appended or inserted
// after insertFloor. A sequence that shrank or changed under the cache is
// detected and re-cleaned from scratch.
func (c *Cleaner) CleanFrom(st *State, s *position.Sequence, insertFloor time.Time) (*position.Sequence, Report) {
	if s.Len() == 0 {
		st.Reset()
		return position.NewSequence(s.Device), Report{}
	}
	if st.Work == nil {
		st.Work = new(Work)
	}
	w := st.Work
	if st.stable == 0 || s.Len() < st.n || st.stable > s.Len() ||
		!s.Records[st.stable-1].At.Equal(st.cleaned[st.stable-1].At) {
		return c.cleanFull(st, w, s, insertFloor)
	}
	st.prevStable = st.stable

	// Re-clean the cached anchor plus the raw suffix. The anchor is the
	// last stable cleaned record: it is walkable, valid in every sweep
	// pass, and therefore the exact chain state the full computation would
	// carry into the suffix.
	anchor := st.stable - 1
	sub := &w.sub
	sub.Device = s.Device
	sub.Records = append(sub.Records[:0], st.cleaned[anchor])
	sub.Records = append(sub.Records, s.Records[st.stable:]...)
	subRep := Report{Total: sub.Len(), Changes: w.chBuf[:0]}
	inv := resizeBools(&w.inv, sub.Len())
	c.cleanInto(sub, c.maxSpeed(), &subRep, inv, &w.scratch)
	w.chBuf = subRep.Changes[:0]
	for _, ch := range subRep.Changes {
		if ch.Index == 0 {
			// The sub-run touched the anchor: the stability premise failed
			// (it cannot, by construction — this is a safety valve).
			return c.cleanFull(st, w, s, insertFloor)
		}
	}

	// Stitch the suffix onto the cached prefix; the backing arrays are
	// reused, values are copied. Sub index i is global anchor+i, so the
	// sub's entries from 1 on land at global st.stable on.
	st.cleaned = append(st.cleaned[:st.stable], sub.Records[1:]...)
	st.invalid = append(st.invalid[:st.stable], inv[1:]...)
	st.n = s.Len()
	st.out = position.Sequence{Device: s.Device, Records: st.cleaned}
	out := &st.out

	// Remap the suffix changes to global indexes in place, and rewrite the
	// repaired column for the suffix span.
	for i := range subRep.Changes {
		subRep.Changes[i].Index += anchor
	}
	st.markRepaired(st.stable, s.Len(), subRep.Changes)

	// Assemble the full report: cached prefix repairs plus the suffix's —
	// unless the caller opted out of change materialization, which turns
	// the per-flush report cost from O(total repairs) into O(suffix
	// repairs).
	rep := Report{
		Total:        s.Len(),
		Snapped:      st.prefixSnapped + subRep.Snapped,
		FloorFixed:   st.prefixFloorFixed + subRep.FloorFixed,
		Interpolated: st.prefixInterpolated + subRep.Interpolated,
	}
	if !st.NoChanges {
		rep.Changes = make([]Change, 0, len(st.prefixChanges)+len(subRep.Changes))
		rep.Changes = append(rep.Changes, st.prefixChanges...)
		rep.Changes = append(rep.Changes, subRep.Changes...)
	}

	st.advance(subRep.Changes, anchor+stableCut(inv), s, insertFloor)
	return out, rep
}

// markRepaired rewrites the repaired column over [from, n) from this call's
// suffix changes (global indexes).
func (st *State) markRepaired(from, n int, changes []Change) {
	if cap(st.repaired) < n {
		grown := make([]bool, n)
		copy(grown, st.repaired[:from])
		st.repaired = grown
	} else {
		st.repaired = st.repaired[:n]
		for i := from; i < n; i++ {
			st.repaired[i] = false
		}
	}
	for _, ch := range changes {
		if ch.Index >= from && (ch.Kind == RepairFloor || ch.Kind == RepairInterpolate) {
			st.repaired[ch.Index] = true
		}
	}
}

// cleanFull is the from-scratch path: clean the whole sequence, then prime
// the cache with its stable prefix.
func (c *Cleaner) cleanFull(st *State, w *Work, s *position.Sequence, insertFloor time.Time) (*position.Sequence, Report) {
	rep := Report{Total: s.Len()}
	if st.NoChanges {
		// Accumulate into the reusable buffer; the returned report carries
		// nil Changes either way.
		rep.Changes = w.chBuf[:0]
	}
	st.cleaned = append(st.cleaned[:0], s.Records...)
	st.out = position.Sequence{Device: s.Device, Records: st.cleaned}
	out := &st.out
	inv := resizeBools(&w.inv, s.Len())
	c.cleanInto(out, c.maxSpeed(), &rep, inv, &w.scratch)

	st.n = s.Len()
	st.stable, st.prevStable = 0, 0
	st.invalid = append(st.invalid[:0], inv...)
	st.repaired = st.repaired[:0]
	st.markRepaired(0, s.Len(), rep.Changes)
	st.prefixChanges = st.prefixChanges[:0]
	st.prefixSnapped, st.prefixFloorFixed, st.prefixInterpolated = 0, 0, 0
	st.advance(rep.Changes, stableCut(inv), s, insertFloor)
	if st.NoChanges {
		w.chBuf = rep.Changes[:0]
		rep.Changes = nil
	}
	return out, rep
}

// advance grows the stable prefix to cut (capped by the insert-safe record
// count) and files the newly stable changes into the prefix buckets.
// newChanges are this call's not-yet-filed changes, with global indexes.
func (st *State) advance(newChanges []Change, cut int, s *position.Sequence, insertFloor time.Time) {
	if insertFloor.IsZero() {
		cut = 0
	} else if safe := sort.Search(s.Len(), func(i int) bool {
		return s.Records[i].At.After(insertFloor)
	}); safe < cut {
		cut = safe
	}
	// The prefix must end on a record no sweep pass suspected: a repaired
	// record's value is final here, but re-anchoring the suffix chain on
	// it would diverge from the full computation, which anchors past it.
	for cut > 0 && st.invalid[cut-1] {
		cut--
	}
	if cut < st.stable {
		// The anchor-stability and insert floors are both monotone, so the
		// stable prefix never regresses; keep it if a non-converged sweep
		// declined to advance it.
		cut = st.stable
	}
	for _, ch := range newChanges {
		if ch.Index >= cut {
			continue
		}
		if !st.NoChanges {
			st.prefixChanges = append(st.prefixChanges, ch)
		}
		switch ch.Kind {
		case RepairSnap:
			st.prefixSnapped++
		case RepairFloor:
			st.prefixFloorFixed++
		case RepairInterpolate:
			st.prefixInterpolated++
		}
	}
	st.stable = cut
}

// stableCut returns the index (into the cleaned run inv describes) after
// which values may still change: the start of the trailing run of records
// that any sweep pass detected as speed-constraint violations — their
// repairs anchored on nothing ahead and will re-derive once later records
// arrive. Suspect records before the trailing run keep final values (their
// repairs anchored on both sides inside the sequence), including segments
// the pass cap stopped mid-oscillation: any longer re-clean replays the
// identical capped passes over them.
//
//trips:zeroalloc
func stableCut(inv []bool) int {
	cut := len(inv)
	for cut > 0 && inv[cut-1] {
		cut--
	}
	return cut
}

// resizeBools returns *buf resized to n entries, all false.
func resizeBools(buf *[]bool, n int) []bool {
	b := *buf
	if cap(b) < n {
		b = make([]bool, n)
	} else {
		b = b[:n]
		for i := range b {
			b[i] = false
		}
	}
	*buf = b
	return b
}
