package analytics

import (
	"fmt"
	"time"

	"trips/internal/position"
	"trips/internal/tripstore"
)

// Bootstrap replays an existing warehouse into the views: every device's
// timeline, paged in From order, folds through the same path the live
// emitter uses — so a cold start over a persisted store reaches exactly
// the state live ingestion would have built (the property
// TestBootstrapMatchesLive locks down).
//
// The replay is frontier-bounded: each device resumes strictly past its
// fold frontier (the From of its last folded triplet), so on a fresh
// engine it is a full replay, while on an engine pre-populated from a
// durable snapshot (LoadSnapshot) it replays only the warehouse tail the
// snapshot missed — boot cost O(tail), not O(stored trips). Re-delivered
// trips at or behind a frontier are skipped silently (they are replay
// overlap, not backfill), so Bootstrap never inflates OutOfOrder.
//
// Call it before attaching the engine to a live feed: a device that folds
// a live trip while its page is in flight moves its frontier past the
// page, which is then skipped as overlap. Rebuild is the replay that is
// safe under a live feed.
func (e *Engine) Bootstrap(w *tripstore.Warehouse) error {
	const pageSize = 1024
	for _, dev := range w.Devices() {
		spec := tripstore.QuerySpec{
			Device:     dev,
			StartAfter: e.deviceFrontier(dev),
			Limit:      pageSize,
		}
		for {
			page, err := w.Query(spec)
			if err != nil {
				return fmt.Errorf("analytics: bootstrap %s: %w", dev, err)
			}
			for _, tr := range page.Trips {
				e.IngestReplay(tr.Device, tr.Triplet)
			}
			if page.Next == "" {
				break
			}
			spec.Cursor = page.Next
		}
	}
	return nil
}

// deviceFrontier returns the From of the device's last folded triplet —
// the replay resume point; zero for a device the views have never seen.
func (e *Engine) deviceFrontier(dev position.DeviceID) (frontier time.Time) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if d := e.views.devices[dev]; d != nil {
		frontier = d.lastFrom
	}
	return frontier
}

// Rebuild re-derives every view from w in place — the recovery path for
// RebuildRecommended (a backfill the incremental fold had to drop). The
// hub, configuration, metrics and snapshot stamps stay, so subscribers keep
// their feed, the Emitter tee keeps folding into this engine, and a running
// StartAutoSnapshot keeps writing it; the replay publishes no deltas.
//
// Live folds continue while a scratch engine bootstraps from w. Then, under
// the engine's write lock, the scratch replays the tail once more and its
// view state replaces the live one. Nothing is buffered across the swap
// because the warehouse is the buffer: every producer stores a trip before
// folding it (Warehouse.Emitter and Warehouse.Sink store before they
// forward), so any trip a live fold has seen is in w for the locked replay
// to find. Two things the warehouse cannot tell are
// reconciled per device at the swap, off the fold's hot path:
//
//   - a trip stored but still waiting on the lock to fold is replayed here
//     and delivered live right after; it is at most one trip per device,
//     sitting exactly on the rebuilt frontier, and fold skips it as replay
//     overlap instead of counting OutOfOrder (which would recommend the
//     rebuild that just ran);
//   - DeviceLeft signals are not warehoused; a device the live views show
//     departed since the same last trip stays departed, whether the signal
//     came before the rebuild or during it.
//
// On error the views are left as they were.
func (e *Engine) Rebuild(w *tripstore.Warehouse) error {
	e.rebuild.Lock()
	defer e.rebuild.Unlock()

	scratch := New(e.cfg)
	if err := scratch.Bootstrap(w); err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := scratch.Bootstrap(w); err != nil {
		return err
	}
	fresh := scratch.views
	var overlap map[position.DeviceID]time.Time
	//trips:commutative per-device reconciliation; devices are independent
	for dev, d := range fresh.devices {
		switch old := e.views.devices[dev]; {
		// Ahead of the live fold — or still ahead of it since the last
		// rebuild: the delivery has yet to win the lock.
		case old == nil || d.lastFrom.After(old.lastFrom) || e.overlap[dev].Equal(d.lastFrom):
			if overlap == nil {
				overlap = make(map[position.DeviceID]time.Time)
			}
			overlap[dev] = d.lastFrom
		case old.region == "" && d.lastFrom.Equal(old.lastFrom):
			fresh.vacate(d)
		}
	}
	fresh.leaves = e.views.leaves
	e.views, e.overlap = fresh, overlap
	return nil
}
