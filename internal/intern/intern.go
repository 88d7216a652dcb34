// Package intern provides a concurrency-safe symbol table that maps strings
// to dense small-integer ids and back.
//
// The hot paths of the online engine compare and hash identifiers on every
// record: region ids during annotation, device ids during shard routing and
// session lookup. Interning turns those string operations into integer
// operations — an int32 compare instead of a memcmp, an array index instead
// of a map probe — and lets per-id state live in flat slices indexed by the
// id ("scan contiguous small integers, don't chase pointers"). Strings are
// materialized only at API/serialization boundaries, via String, which
// returns the original (shared, allocation-free) string header.
//
// Ids are assigned in Intern call order, starting at 0. Callers that need a
// specific order (e.g. dsm assigns region ids in sorted order so integer
// comparison reproduces lexicographic tie-breaks) simply intern in that
// order while the table is still private. ID -1 is reserved as "none" and is
// never assigned.
package intern

import (
	"strings"
	"sync"
)

// ID is a dense interned identifier. Valid ids are >= 0; None (-1) marks
// "no identifier".
type ID int32

// None is the id of the absent identifier. It is smaller than every valid
// id, mirroring how the empty string sorts before every non-empty one.
const None ID = -1

// Table maps strings to dense ids. The zero value is an empty table ready
// for use. A Table is safe for concurrent use; lookups of already-interned
// strings take a read lock only and do not allocate.
type Table struct {
	mu   sync.RWMutex
	ids  map[string]ID
	strs []string
}

// NewTable returns an empty table pre-sized for n entries.
func NewTable(n int) *Table {
	return &Table{ids: make(map[string]ID, n), strs: make([]string, 0, n)}
}

// Intern returns the id for s, assigning the next dense id on first sight.
// The table clones s before storing it, so callers may pass strings that
// alias transient parse buffers.
func (t *Table) Intern(s string) ID {
	t.mu.RLock()
	id, ok := t.ids[s]
	t.mu.RUnlock()
	if ok {
		return id
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.ids[s]; ok {
		return id
	}
	if t.ids == nil {
		t.ids = make(map[string]ID)
	}
	s = strings.Clone(s)
	id = ID(len(t.strs))
	t.ids[s] = id
	t.strs = append(t.strs, s)
	return id
}

// Canonical interns s and returns the stored canonical string, so repeated
// occurrences of one identifier share a single allocation — the form the
// stream parsers use to stop allocating one device string per record. The
// hit path takes a read lock only and does not allocate.
//
//trips:zeroalloc
func (t *Table) Canonical(s string) string {
	t.mu.RLock()
	if id, ok := t.ids[s]; ok {
		cs := t.strs[id]
		t.mu.RUnlock()
		return cs
	}
	t.mu.RUnlock()
	// First sight of an identifier interns it: one allocation per distinct
	// symbol, amortized to zero over a stream.
	return t.String(t.Intern(s))
}

// String returns the original string for id, sharing its backing bytes; it
// never allocates. It returns "" for None and panics on other out-of-range
// ids, which always indicate an id from a different table.
//
//trips:zeroalloc
func (t *Table) String(id ID) string {
	if id == None {
		return ""
	}
	t.mu.RLock()
	s := t.strs[id]
	t.mu.RUnlock()
	return s
}
