package position

import (
	"math"
	"time"

	"trips/internal/dsm"
	"trips/internal/geom"
)

// Columns is a struct-of-arrays projection of a time-ordered record run.
// The per-record scans of the translation pipeline — density neighborhoods,
// cut detection — read one or two fields per record; scanning them as
// parallel columns pulls a fraction of the memory through the cache that
// the full Record rows (device string included) would, and the incremental
// annotator keeps one Columns synced with its growing tail so the
// projection is paid only for the new suffix.
type Columns struct {
	// At is each record's instant on a run-local clock in nanoseconds: 0 at
	// the first record, then advancing by the gap to the previous record,
	// where a gap longer than the Sync window counts as the window plus one
	// nanosecond. A difference of two entries is therefore the exact
	// interval whenever that interval is within the window, and exceeds the
	// window whenever the interval does — all a comparison against a
	// threshold inside the window needs. It takes 8 bytes per record where
	// a time.Time takes 24, and unlike nanoseconds since an epoch, which
	// span only 292 years, it holds any instants a record can carry: only
	// 2^63 ns of window-capped gaps would exhaust it, and then it saturates.
	At    []int64
	Floor []dsm.FloorID
	P     []geom.Point
}

// Sync resizes the columns to recs and rewrites entries [from:], keeping the
// prefix — the incremental form for a tail whose records below from are
// unchanged since the last call. Sync(recs, 0, window) projects from
// scratch. window is the longest interval the caller compares clock
// differences against, and must be the same on every call for one run.
func (c *Columns) Sync(recs []Record, from int, window time.Duration) {
	n := len(recs)
	c.At = growCol(c.At, n)
	c.Floor = growCol(c.Floor, n)
	c.P = growCol(c.P, n)
	for i := from; i < n; i++ {
		r := &recs[i]
		c.Floor[i], c.P[i] = r.Floor, r.P
		if i == 0 {
			c.At[0] = 0
			continue
		}
		// Sub saturates rather than wrapping, and so does the clock; a
		// negative gap is a run out of time order, clamped so the clock never
		// runs backwards.
		gap := r.At.Sub(recs[i-1].At)
		if gap > window {
			gap = window + 1
		}
		c.At[i] = c.At[i-1] + min(max(0, int64(gap)), math.MaxInt64-c.At[i-1])
	}
}

// Len returns the number of projected records.
func (c *Columns) Len() int { return len(c.At) }

// growCol resizes buf to n entries, keeping existing values. Growth doubles
// capacity: a session tail grows by a few records per flush, and exact-size
// growth would reallocate-and-copy every column on every flush.
func growCol[T any](buf []T, n int) []T {
	if cap(buf) < n {
		grown := make([]T, n, 2*n)
		copy(grown, buf)
		return grown
	}
	return buf[:n]
}
