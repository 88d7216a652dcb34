package analytics

import (
	"errors"
	"fmt"
	"maps"
	"os"
	"slices"
	"sort"
	"sync"
	"time"

	"trips/internal/dsm"
	"trips/internal/position"
	"trips/internal/storage"
)

// This file is the durability layer of the views: a deterministic
// serialized form for every view plus atomic save/load on the backend
// store, so a restart boots from the snapshot and replays only the
// warehouse tail past the recorded fold frontiers (Bootstrap) instead of
// re-folding the whole store.
//
// # Format
//
// One JSON document (collection "analytics-snapshot", key "latest",
// written atomically by internal/storage's temp-file + rename) holding a
// versioned header — format version, the ring geometry the bucket indexes
// were computed under, the save wall time — and one section per view, each
// carrying its own fold frontier. Today every view folds the same sealed
// stream, so the per-view frontiers are equal (the max folded From); they
// are serialized per view so a future view with its own fold cadence stays
// format-compatible. The authoritative replay resume points are finer
// still: the device section records each device's lastFrom, and Bootstrap
// resumes each device strictly past it — exact regardless of cross-device
// arrival skew at capture time.
//
// Everything is rendered in a deterministic order (devices, regions, flow
// pairs, buckets all sorted), so identical view state always serializes to
// identical bytes.
//
// # Consistency
//
// Capture copies the state under the engine's read lock, giving a
// consistent cut even under live ingestion; the disk write happens after
// the lock drops. The optional Sync hook runs between capture and write:
// callers pass the warehouse's Flush so the persisted views never run
// ahead of the durable trip log they would need to replay against — a
// crash that loses the warehouse's pending batch then also "loses" those
// trips from the snapshot, keeping snapshot-boot ≡ full rebuild.

// snapshotVersion is the durable format version; incompatible layout
// changes (bucket bounds, section shapes) must bump it.
const snapshotVersion = 1

// ErrIncompatibleSnapshot is returned by LoadSnapshot when a persisted
// snapshot exists but cannot seed this engine: written by a different
// format version, under a different ring geometry (BucketWidth/Buckets),
// with different dwell bounds, or simply corrupt. The caller falls back to
// a full Bootstrap (trips.OpenAnalytics does).
var ErrIncompatibleSnapshot = errors.New("analytics: incompatible snapshot")

// ErrEngineNotEmpty is returned by LoadSnapshot on an engine that has
// already folded state; snapshots load only into fresh engines.
var ErrEngineNotEmpty = errors.New("analytics: snapshot load into non-empty engine")

// StoreOptions locates the durable snapshot on a backend store.
type StoreOptions struct {
	// Store is the backend document store; the snapshot is its
	// "analytics-snapshot" / "latest" document. Required.
	Store *storage.Store
	// Sync, when set, runs after the in-memory state capture and before
	// the disk write. Pass the warehouse's Flush here: it pins the
	// invariant that every trip the snapshot covers is already durable in
	// the trip log, so crash recovery (snapshot + tail replay) can never
	// know more than a full rebuild would.
	Sync func() error
}

const (
	snapshotCollection = "analytics-snapshot"
	snapshotDocKey     = "latest"
)

// snapshotDoc is the on-disk form.
type snapshotDoc struct {
	Version int       `json:"version"`
	SavedAt time.Time `json:"savedAt"`
	// BucketWidth/Buckets are the ring geometry the bucket indexes were
	// computed under; a mismatch invalidates the snapshot.
	BucketWidth time.Duration `json:"bucketWidth"`
	Buckets     int           `json:"buckets"`
	// DwellBounds fingerprints the histogram layout.
	DwellBounds int `json:"dwellBounds"`

	Watermark time.Time   `json:"watermark,omitzero"`
	Counters  countersDoc `json:"counters"`

	Devices devicesViewDoc `json:"devices"`
	Regions regionsViewDoc `json:"regions"`
	Flows   flowsViewDoc   `json:"flows"`
	Dwell   dwellViewDoc   `json:"dwell"`
	Ring    ringViewDoc    `json:"ring"`
}

type countersDoc struct {
	Trips       int64 `json:"trips"`
	Inferred    int64 `json:"inferred"`
	Regionless  int64 `json:"regionless"`
	OutOfOrder  int64 `json:"outOfOrder"`
	LateBuckets int64 `json:"lateBuckets"`
	Leaves      int64 `json:"leaves"`
}

// devicesViewDoc is the occupancy view's canonical source: per-device fold
// state, sorted by device ID. Occupancy counts are derived from it on load
// (each state with a region counts one occupant), so they can never
// disagree with the device states.
type devicesViewDoc struct {
	Frontier time.Time   `json:"frontier,omitzero"`
	States   []deviceDoc `json:"states"`
}

type deviceDoc struct {
	Device     position.DeviceID `json:"device"`
	Region     dsm.RegionID      `json:"region,omitempty"`
	PrevRegion dsm.RegionID      `json:"prevRegion,omitempty"`
	LastFrom   time.Time         `json:"lastFrom"`
	LastTo     time.Time         `json:"lastTo"`
}

type regionsViewDoc struct {
	Frontier time.Time   `json:"frontier,omitzero"`
	Rows     []regionDoc `json:"rows"`
}

type regionDoc struct {
	Region dsm.RegionID `json:"region"`
	Tag    string       `json:"tag,omitempty"`
	Visits int64        `json:"visits"`
}

type flowsViewDoc struct {
	Frontier time.Time `json:"frontier,omitzero"`
	Rows     []flowDoc `json:"rows"`
}

type flowDoc struct {
	From  dsm.RegionID `json:"from"`
	To    dsm.RegionID `json:"to"`
	Count int64        `json:"count"`
}

type dwellViewDoc struct {
	Frontier time.Time  `json:"frontier,omitzero"`
	Rows     []dwellDoc `json:"rows"`
}

type dwellDoc struct {
	Region  dsm.RegionID  `json:"region"`
	Buckets []int64       `json:"buckets"`
	Count   int64         `json:"count"`
	Sum     time.Duration `json:"sum"`
	Max     time.Duration `json:"max"`
}

type ringViewDoc struct {
	Frontier time.Time `json:"frontier,omitzero"`
	// MinRetained is the retention frontier at capture; the loaded engine
	// resumes pruning from it.
	MinRetained int64           `json:"minRetained"`
	Buckets     []ringBucketDoc `json:"buckets"`
}

type ringBucketDoc struct {
	Index   int64            `json:"index"`
	Regions []regionCountDoc `json:"regions"`
}

type regionCountDoc struct {
	Region dsm.RegionID `json:"region"`
	Count  int64        `json:"count"`
}

// capture renders the full engine state as a snapshot document under a
// consistent cut: the read lock held throughout.
func (e *Engine) capture() *snapshotDoc {
	e.mu.RLock()
	defer e.mu.RUnlock()
	v := &e.views

	doc := &snapshotDoc{
		Version:     snapshotVersion,
		BucketWidth: e.cfg.BucketWidth,
		Buckets:     e.cfg.Buckets,
		DwellBounds: len(dwellBounds),
		Watermark:   v.watermark,
		Counters: countersDoc{
			Trips:       v.trips,
			Inferred:    v.inferred,
			Regionless:  v.regionless,
			OutOfOrder:  v.outOfOrder,
			LateBuckets: v.lateBucket,
			Leaves:      v.leaves,
		},
	}

	var frontier time.Time
	for _, dev := range slices.Sorted(maps.Keys(v.devices)) {
		d := v.devices[dev]
		doc.Devices.States = append(doc.Devices.States, deviceDoc{
			Device:     dev,
			Region:     d.region,
			PrevRegion: d.prevRegion,
			LastFrom:   d.lastFrom,
			LastTo:     d.lastTo,
		})
		if d.lastFrom.After(frontier) {
			frontier = d.lastFrom
		}
	}
	doc.Devices.Frontier = frontier
	doc.Regions.Frontier = frontier
	doc.Flows.Frontier = frontier
	doc.Dwell.Frontier = frontier
	doc.Ring.Frontier = frontier
	doc.Ring.MinRetained = v.minRetained

	for _, r := range slices.Sorted(maps.Keys(v.visits)) {
		doc.Regions.Rows = append(doc.Regions.Rows, regionDoc{Region: r, Tag: v.tags[r], Visits: v.visits[r]})
	}
	//trips:commutative row collection; iteration order is erased by the sort below
	for k, n := range v.flows {
		doc.Flows.Rows = append(doc.Flows.Rows, flowDoc{From: k.from, To: k.to, Count: n})
	}
	sort.Slice(doc.Flows.Rows, func(i, j int) bool {
		a, b := doc.Flows.Rows[i], doc.Flows.Rows[j]
		if a.From != b.From {
			return a.From < b.From
		}
		return a.To < b.To
	})
	for _, r := range slices.Sorted(maps.Keys(v.dwell)) {
		h := v.dwell[r]
		doc.Dwell.Rows = append(doc.Dwell.Rows, dwellDoc{
			Region:  r,
			Buckets: append([]int64(nil), h.buckets[:]...),
			Count:   h.count,
			Sum:     h.sum,
			Max:     h.max,
		})
	}
	for _, idx := range slices.Sorted(maps.Keys(v.ring)) {
		rb, b := ringBucketDoc{Index: idx}, v.ring[idx]
		for _, r := range slices.Sorted(maps.Keys(b)) {
			rb.Regions = append(rb.Regions, regionCountDoc{Region: r, Count: b[r]})
		}
		doc.Ring.Buckets = append(doc.Ring.Buckets, rb)
	}
	return doc
}

// SaveSnapshot captures the views under a consistent cut, runs opts.Sync
// (flush the warehouse log here — see StoreOptions), and writes the
// snapshot document atomically. Safe to call concurrently with ingestion
// and queries; concurrent saves serialize on the backend store.
func (e *Engine) SaveSnapshot(opts StoreOptions) (err error) {
	defer func() {
		if err != nil {
			e.snapshotErrors.Add(1)
		}
	}()
	if opts.Store == nil {
		return errors.New("analytics: StoreOptions.Store is required")
	}
	doc := e.capture()
	//trips:allow wallclock: SavedAt is a provenance stamp on the snapshot file, not event time
	doc.SavedAt = time.Now().UTC()
	if opts.Sync != nil {
		if err := opts.Sync(); err != nil {
			return fmt.Errorf("analytics: snapshot sync: %w", err)
		}
	}
	if err := opts.Store.Put(snapshotCollection, snapshotDocKey, doc); err != nil {
		return fmt.Errorf("analytics: write snapshot: %w", err)
	}
	e.lastSnapshot.Store(doc.SavedAt.UnixMilli())
	return nil
}

// LoadSnapshot restores the persisted snapshot into a fresh engine and
// reports whether one was found. After a successful load, Bootstrap
// replays only the warehouse tail past the restored fold frontiers. A
// snapshot written under a different format version or view geometry (or
// one that fails to decode) returns ErrIncompatibleSnapshot — fall back to
// a full Bootstrap.
func (e *Engine) LoadSnapshot(opts StoreOptions) (bool, error) {
	if opts.Store == nil {
		return false, errors.New("analytics: StoreOptions.Store is required")
	}
	var doc snapshotDoc
	err := opts.Store.Get(snapshotCollection, snapshotDocKey, &doc)
	switch {
	case err == nil:
	case os.IsNotExist(err):
		return false, nil
	default:
		if _, ok := err.(*os.PathError); ok {
			return false, fmt.Errorf("analytics: read snapshot: %w", err)
		}
		// A document that exists but does not decode is an incompatible
		// (or corrupt) snapshot, not an I/O failure.
		return false, fmt.Errorf("%w: %v", ErrIncompatibleSnapshot, err)
	}
	if doc.Version != snapshotVersion ||
		doc.BucketWidth != e.cfg.BucketWidth ||
		doc.Buckets != e.cfg.Buckets ||
		doc.DwellBounds != len(dwellBounds) {
		return false, fmt.Errorf("%w: version %d geometry (%v, %d, %d) vs engine (%d, %v, %d, %d)",
			ErrIncompatibleSnapshot, doc.Version, doc.BucketWidth, doc.Buckets, doc.DwellBounds,
			snapshotVersion, e.cfg.BucketWidth, e.cfg.Buckets, len(dwellBounds))
	}
	if err := e.restore(&doc); err != nil {
		return false, err
	}
	return true, nil
}

// restore populates a fresh engine from a decoded snapshot. Occupancy is
// re-derived from the per-device fold states, so it can never disagree with
// them.
func (e *Engine) restore(doc *snapshotDoc) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	v := &e.views
	if len(v.devices) > 0 || v.trips > 0 {
		return ErrEngineNotEmpty
	}
	// Validate every section before touching the engine: a partial restore
	// would leave device frontiers installed, and the caller's full-rebuild
	// fallback would then silently skip everything behind them.
	for _, d := range doc.Dwell.Rows {
		if len(d.Buckets) != len(dwellBounds)+1 {
			return fmt.Errorf("%w: dwell row %s has %d buckets", ErrIncompatibleSnapshot, d.Region, len(d.Buckets))
		}
	}
	// A frontier past the watermark's own bucket would drop every later
	// popularity fold as late.
	if wb := e.bucketIndex(doc.Watermark); doc.Ring.MinRetained > wb {
		return fmt.Errorf("%w: ring frontier %d above the watermark's bucket %d", ErrIncompatibleSnapshot, doc.Ring.MinRetained, wb)
	}

	for _, d := range doc.Devices.States {
		v.devices[d.Device] = &deviceState{
			region:     d.Region,
			prevRegion: d.PrevRegion,
			lastFrom:   d.LastFrom,
			lastTo:     d.LastTo,
		}
		if d.Region != "" {
			v.occupancy[d.Region]++
		}
	}
	v.watermark = doc.Watermark
	v.trips = doc.Counters.Trips
	v.inferred = doc.Counters.Inferred
	v.regionless = doc.Counters.Regionless
	v.outOfOrder = doc.Counters.OutOfOrder
	v.lateBucket = doc.Counters.LateBuckets
	v.leaves = doc.Counters.Leaves
	for _, r := range doc.Regions.Rows {
		v.visits[r.Region] = r.Visits
		if r.Tag != "" {
			v.tags[r.Region] = r.Tag
		}
	}
	for _, f := range doc.Flows.Rows {
		v.flows[flowKey{f.From, f.To}] = f.Count
	}
	for _, d := range doc.Dwell.Rows {
		h := new(histogram)
		copy(h.buckets[:], d.Buckets)
		h.count, h.sum, h.max = d.Count, d.Sum, d.Max
		v.dwell[d.Region] = h
	}
	for _, b := range doc.Ring.Buckets {
		for _, r := range b.Regions {
			v.bucket(b.Index)[r.Region] = r.Count
		}
	}
	v.minRetained = doc.Ring.MinRetained
	if !doc.SavedAt.IsZero() {
		e.lastSnapshot.Store(doc.SavedAt.UnixMilli())
	}
	return nil
}

// StartAutoSnapshot writes a snapshot every interval (default 1 minute)
// until the returned stop function runs; stop writes one final snapshot —
// call it during shutdown after the online engine has closed, so the last
// sealed triplets are covered — and returns its error (stop is
// idempotent). Periodic save failures are counted in
// Stats.SnapshotErrors and retried next tick.
func (e *Engine) StartAutoSnapshot(opts StoreOptions, interval time.Duration) (stop func() error) {
	if interval <= 0 {
		interval = time.Minute
	}
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				e.SaveSnapshot(opts) // failures count in Stats.SnapshotErrors
			}
		}
	}()
	var once sync.Once
	var finalErr error
	return func() error {
		once.Do(func() {
			close(done)
			<-exited
			finalErr = e.SaveSnapshot(opts)
		})
		return finalErr
	}
}
