package tripstore

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"

	"trips/internal/storage"
)

// LogOptions configures the durability layer. The log writes its segments
// to the store's "warehouse-segments" collection and its snapshot to
// "warehouse-snapshot", one segment per 256 buffered trips (Flush, Snapshot
// and Close cut a shorter one).
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

// snapshotDoc is the full-state dump; segments with Seq <= Covered are
// folded in and deleted.
type snapshotDoc struct {
	Covered int    `json:"covered"`
	Trips   []Trip `json:"trips"`
}

const snapshotKey = "latest"

// segmentLog is the batched append-only segment log. Ownership is split
// so queries never wait on disk: the buffer state (pending, next,
// segments) is guarded by the owning Warehouse's write lock, which
// detaches full batches; the actual document writes run outside that lock,
// serialized by io. Replay happens before the warehouse is shared.
type segmentLog struct {
	store *storage.Store

	// Guarded by the owning Warehouse's mutex.
	pending  []Trip
	next     int // next segment number to assign
	segments int // live (un-snapshotted) segments on disk

	io sync.Mutex // serializes segment/snapshot writes and truncation
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

// replay feeds the persisted state — snapshot first, then every segment
// past it, in write order — to insert, and positions the log to append
// after the highest segment seen.
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
		if n <= snap.Covered {
			// Covered by the snapshot but not yet deleted (a crash
			// between snapshot write and truncation); skip, dedupe would
			// drop it anyway.
			continue
		}
		var seg segmentDoc
		if err := l.store.Get(segmentCollection, k, &seg); err != nil {
			return fmt.Errorf("tripstore: read segment %s: %w", k, err)
		}
		for _, t := range seg.Trips {
			insert(t)
		}
		l.segments++
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

// writeSegment persists one detached batch.
func (l *segmentLog) writeSegment(seq int, batch []Trip) error {
	l.io.Lock()
	defer l.io.Unlock()
	if err := l.store.Put(segmentCollection, segKey(seq), segmentDoc{Seq: seq, Trips: batch}); err != nil {
		return fmt.Errorf("tripstore: write segment %d: %w", seq, err)
	}
	return nil
}

// writeSnapshot persists the full-state dump, truncates the covered
// segments, and reports how many it deleted. A segment write racing the
// truncation can land a document with Seq <= covered afterwards; replay
// skips those, and the next snapshot removes them.
func (l *segmentLog) writeSnapshot(covered int, dump []Trip) (int, error) {
	l.io.Lock()
	defer l.io.Unlock()
	if err := l.store.Put(snapshotCollection, snapshotKey, snapshotDoc{Covered: covered, Trips: dump}); err != nil {
		return 0, fmt.Errorf("tripstore: write snapshot: %w", err)
	}
	keys, err := l.store.List(segmentCollection)
	if err != nil {
		return 0, err
	}
	deleted := 0
	for _, k := range keys {
		if n, ok := parseSegKey(k); ok && n <= covered {
			if err := l.store.Delete(segmentCollection, k); err != nil {
				return deleted, err
			}
			deleted++
		}
	}
	return deleted, nil
}
