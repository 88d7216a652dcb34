package tripstore

import (
	"errors"
	"fmt"
	"os"
	"strings"

	"trips/internal/storage"
)

// LogOptions configures the durability layer. The log writes its segments
// to the store's "warehouse-segments" collection, one segment per 256
// buffered trips (Flush and Close cut a shorter one), each written once and
// never rewritten. It writes nothing else; a "warehouse-snapshot" document
// an older store holds is still read at replay.
type LogOptions struct {
	// Store is the backend document store the log rides on. Required.
	Store *storage.Store
}

// A segment of segmentBatch trips amortizes the per-document temp-file +
// rename cost; a smaller batch would tighten the durability window.
const (
	segmentCollection  = "warehouse-segments"
	snapshotCollection = "warehouse-snapshot"
	segmentBatch       = 256
)

// segmentDoc is one append-only log segment on disk.
type segmentDoc struct {
	Seq   int    `json:"seq"`
	Trips []Trip `json:"trips"`
}

// snapshotDoc is the full-state dump older stores hold: its trips, with
// the segments numbered up to Covered folded in. Replay reads it and skips
// those segments; nothing writes it any more.
type snapshotDoc struct {
	Covered int    `json:"covered"`
	Trips   []Trip `json:"trips"`
}

const snapshotKey = "latest"

// segmentLog is the batched append-only segment log. Ownership is split
// so queries never wait on disk: the buffer state (pending, next,
// segments) is guarded by the owning Warehouse's write lock, which
// detaches full batches; the document writes run outside that lock, each
// under its own segment number. Replay happens before the warehouse is
// shared.
type segmentLog struct {
	store *storage.Store

	// Guarded by the owning Warehouse's mutex.
	pending  []Trip
	next     int // next segment number to assign
	segments int // segment files on disk
}

func openSegmentLog(st *storage.Store) (*segmentLog, error) {
	if st == nil {
		return nil, errors.New("tripstore: LogOptions.Store is required")
	}
	return &segmentLog{store: st, next: 1}, nil
}

func segKey(n int) string { return fmt.Sprintf("seg-%08d", n) }

func parseSegKey(k string) (int, bool) {
	if !strings.HasPrefix(k, "seg-") {
		return 0, false
	}
	var n int
	if _, err := fmt.Sscanf(k, "seg-%d", &n); err != nil {
		return 0, false
	}
	return n, true
}

// replay feeds the persisted state — every segment in write order, after
// the snapshot document of an older store and skipping the segments it
// covers — to insert, and positions the log to append after the highest
// segment number seen.
func (l *segmentLog) replay(insert func(Trip)) error {
	var snap snapshotDoc
	err := l.store.Get(snapshotCollection, snapshotKey, &snap)
	switch {
	case err == nil:
		for _, t := range snap.Trips {
			insert(t)
		}
	case os.IsNotExist(err):
	default:
		return fmt.Errorf("tripstore: read snapshot: %w", err)
	}
	keys, err := l.store.List(segmentCollection)
	if err != nil {
		return fmt.Errorf("tripstore: list segments: %w", err)
	}
	high := snap.Covered
	for _, k := range keys { // List returns keys sorted = segment order
		n, ok := parseSegKey(k)
		if !ok {
			continue
		}
		if n > high {
			high = n
		}
		l.segments++
		if n <= snap.Covered {
			// Covered by an older store's snapshot but never deleted (a
			// crash between snapshot write and truncation); skip, dedupe
			// would drop it anyway.
			continue
		}
		var seg segmentDoc
		if err := l.store.Get(segmentCollection, k, &seg); err != nil {
			return fmt.Errorf("tripstore: read segment %s: %w", k, err)
		}
		for _, t := range seg.Trips {
			insert(t)
		}
	}
	l.next = high + 1
	return nil
}

// detach hands the pending buffer over for writing and assigns it a
// segment number; callers hold the warehouse write lock. A nil batch
// means nothing is pending.
func (l *segmentLog) detach() ([]Trip, int) {
	if len(l.pending) == 0 {
		return nil, 0
	}
	batch := l.pending
	l.pending = nil
	seq := l.next
	l.next++
	return batch, seq
}

// requeue puts a batch whose write failed back at the head of the pending
// buffer; callers hold the warehouse write lock. Its segment number is
// abandoned (replay tolerates gaps) and the batch rides out with the next
// flush.
func (l *segmentLog) requeue(batch []Trip) {
	l.pending = append(batch, l.pending...)
}

// writeSegment persists one detached batch. Concurrent writes touch
// distinct documents, and the store serializes them.
func (l *segmentLog) writeSegment(seq int, batch []Trip) error {
	if err := l.store.Put(segmentCollection, segKey(seq), segmentDoc{Seq: seq, Trips: batch}); err != nil {
		return fmt.Errorf("tripstore: write segment %d: %w", seq, err)
	}
	return nil
}
