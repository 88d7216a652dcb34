package tripstore

import (
	"sort"
	"time"
)

// posting is one index list: trip refs in the global (From, Device, Seq)
// order. Order maintenance is amortized: add appends and extends the clean
// prefix when the append is already in order (the common case — producers
// emit per-device timelines forward); an out-of-order append leaves the
// list dirty and the next reader sorts once. The refs share the Trip
// allocations with every other index, so a posting costs one pointer per
// trip.
type posting struct {
	refs  []*Trip
	clean int // length of the prefix known to be in order
}

func (p *posting) add(t *Trip) {
	if p.clean == len(p.refs) &&
		(len(p.refs) == 0 || !t.key().less(p.refs[len(p.refs)-1].key())) {
		p.clean++
	}
	p.refs = append(p.refs, t)
}

// dirty reports whether the list has an unsorted suffix.
func (p *posting) dirty() bool { return p.clean < len(p.refs) }

// maxScan bounds the unsorted suffix startsAt scans linearly; a longer one
// is sorted first.
const maxScan = 32

// startsAt reports whether a ref starts at from — the (device, From)
// dedupe, asked of a device's own posting; callers hold the warehouse
// write lock. Producers file each device's timeline forward, so the usual
// answer is one comparison with the last ref; otherwise it is a binary
// search of the clean prefix plus a scan of the unsorted suffix.
func (p *posting) startsAt(from time.Time) bool {
	n := len(p.refs)
	if n == 0 {
		return false
	}
	if p.clean == n {
		if last := p.refs[n-1].Triplet.From; !from.Before(last) {
			return from.Equal(last)
		}
	} else if n-p.clean > maxScan {
		p.sorted()
	}
	i := sort.Search(p.clean, func(i int) bool { return !p.refs[i].Triplet.From.Before(from) })
	if i < p.clean && p.refs[i].Triplet.From.Equal(from) {
		return true
	}
	for _, t := range p.refs[p.clean:] {
		if t.Triplet.From.Equal(from) {
			return true
		}
	}
	return false
}

// sorted restores the global order; callers hold the warehouse write
// lock. Cost is O(d·log d + n) for a dirty suffix of length d — the
// suffix sorts alone and merges into the clean prefix — so steady
// ingest-then-query traffic pays linear pointer moves, not a full
// re-sort.
func (p *posting) sorted() {
	if !p.dirty() {
		return
	}
	suffix := p.refs[p.clean:]
	sort.Slice(suffix, func(i, j int) bool {
		return suffix[i].key().less(suffix[j].key())
	})
	if p.clean > 0 {
		// Everything before the suffix's smallest key is already in
		// place; merge only the overlapping tail of the clean prefix.
		lo := sort.Search(p.clean, func(i int) bool {
			return suffix[0].key().less(p.refs[i].key())
		})
		merged := make([]*Trip, 0, len(p.refs)-lo)
		i, j := lo, 0
		for i < p.clean && j < len(suffix) {
			if suffix[j].key().less(p.refs[i].key()) {
				merged = append(merged, suffix[j])
				j++
			} else {
				merged = append(merged, p.refs[i])
				i++
			}
		}
		merged = append(merged, p.refs[i:p.clean]...)
		merged = append(merged, suffix[j:]...)
		copy(p.refs[lo:], merged)
	}
	p.clean = len(p.refs)
}

// span returns the half-open index range [lo, hi) of refs that can overlap
// the period [since, until), using the interval-index bound: a trip lasts
// at most maxDur, so an overlapping trip's From lies in [since−maxDur,
// until). Zero since/until leave the respective side unbounded. The posting
// must be sorted.
func (p *posting) span(since, until time.Time, maxDur time.Duration) (lo, hi int) {
	n := len(p.refs)
	lo, hi = 0, n
	if !since.IsZero() {
		floor := since.Add(-maxDur)
		lo = sort.Search(n, func(i int) bool { return !p.refs[i].Triplet.From.Before(floor) })
	}
	if !until.IsZero() {
		hi = sort.Search(n, func(i int) bool { return !p.refs[i].Triplet.From.Before(until) })
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

// seek returns the first index whose key is strictly greater than k (the
// pagination resume point). The posting must be sorted.
func (p *posting) seek(k key) int {
	return sort.Search(len(p.refs), func(i int) bool { return k.less(p.refs[i].key()) })
}

// seekFrom returns the first index whose From is strictly after t (the
// replay-frontier resume point). Because the global order sorts by From
// first, every ref at or past the returned index satisfies the StartAfter
// predicate — no residual filtering needed. The posting must be sorted.
func (p *posting) seekFrom(t time.Time) int {
	return sort.Search(len(p.refs), func(i int) bool { return p.refs[i].Triplet.From.After(t) })
}
