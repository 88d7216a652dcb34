// Package pipeline assembles the live form of the TRIPS Translator — online
// engine → warehouse → analytics views → sink — and owns the rules of that
// assembly, each stated here and nowhere else:
//
//  1. Tee order. Sealed triplets reach the warehouse first, then the views,
//     then the caller's sink (Tee), so the analytics fold only ever sees a
//     trip its durable twin has stored. The warehouse forwards only the
//     trips it newly stored, so a feed re-sent after a restart reaches the
//     views and the sink as nothing.
//  2. Batch order. A batch translation is stored first, and the views fold
//     only the trips the warehouse had not held (Translate), by the same
//     forwarding rule as the tee: whatever it held has already reached the
//     views by the tee or by Bootstrap. Views without a warehouse fold the
//     results directly.
//  3. View boot. One backend store under StoreDir holds the warehouse's
//     segments and the view snapshot. The snapshot loads first, an
//     incompatible or corrupt one is ignored (OpenViews), and a
//     frontier-bounded Bootstrap then replays only the warehouse tail the
//     snapshot missed.
//  4. Snapshot sync. View snapshots flush the warehouse log before they are
//     written, so persisted views never outrun the durable trips a restart
//     would replay them against.
//  5. Shutdown order. Close seals the engine (its last triplets run through
//     the tee and flush the warehouse's pending segment), then writes the
//     final view snapshot, then closes the warehouse.
//  6. Rebuild. The views re-derive from the warehouse in place
//     (analytics.Engine.Rebuild), so the running engine, the subscribers and
//     the snapshot writer stay attached and no live fold is lost. Rules 1
//     and 2 keep each (device, From) to one delivery downstream of the
//     warehouse, so RebuildRecommended means a real backfill.
//
// trips-server runs on a Pipeline; the trips facade's own public methods
// call the exported pieces.
package pipeline

import (
	"errors"
	"log/slog"
	"time"

	"trips/internal/analytics"
	"trips/internal/core"
	"trips/internal/online"
	"trips/internal/position"
	"trips/internal/storage"
	"trips/internal/tripstore"
)

// Options configures Open. The three subsystem configurations carry their
// own metrics and tracer bundles.
type Options struct {
	// StoreDir roots the durable state: the warehouse's segment log and the
	// view snapshot, in one backend store. Empty keeps the warehouse in
	// memory, bootstraps the views from it at every Open and writes no
	// snapshot.
	StoreDir string
	// SnapshotInterval is the period of the view-snapshot writer (with
	// StoreDir); zero selects the analytics default.
	SnapshotInterval time.Duration

	// Warehouse configures the trip warehouse; Open sets its Log from
	// StoreDir.
	Warehouse tripstore.Options
	Analytics analytics.Config
	// Online configures the live engine. Its Emitter, when set, is the sink
	// behind the warehouse and the views.
	Online online.Config
}

// Pipeline is one assembled, running pipeline. Read the three subsystems
// directly; assembly, Rebuild and Close go through the methods.
type Pipeline struct {
	Warehouse *tripstore.Warehouse
	Analytics *analytics.Engine
	Engine    *online.Engine

	tr       *core.Translator
	stopSnap func() error // nil without StoreDir
}

// Open builds storage → warehouse → views → tee chain → online engine over
// the trained translator and, with StoreDir set, starts the view-snapshot
// writer.
func Open(tr *core.Translator, opts Options) (p *Pipeline, err error) {
	st, err := OpenStore(opts.StoreDir)
	if err != nil {
		return nil, err
	}
	wh, err := OpenWarehouse(st, opts.Warehouse)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			wh.Close()
		}
	}()
	an, err := OpenViews(opts.Analytics, st)
	if err != nil {
		return nil, err
	}
	if err := an.Bootstrap(wh); err != nil {
		return nil, err
	}
	opts.Online.Emitter = Tee(wh, an, opts.Online.Emitter)
	eng, err := tr.NewOnline(opts.Online)
	if err != nil {
		return nil, err
	}
	p = &Pipeline{Warehouse: wh, Analytics: an, Engine: eng, tr: tr}
	if st != nil {
		p.stopSnap = an.StartAutoSnapshot(analytics.StoreOptions{Store: st, Sync: wh.Flush}, opts.SnapshotInterval)
	}
	return p, nil
}

// OpenStore opens the backend store under dir that holds the warehouse's
// segments and the view snapshot; an empty dir gives a nil store, which
// keeps both in memory.
func OpenStore(dir string) (*storage.Store, error) {
	if dir == "" {
		return nil, nil
	}
	return storage.Open(dir)
}

// OpenWarehouse opens the trip warehouse: durable in st, replaying the
// persisted segment log, or memory-only when st is nil.
func OpenWarehouse(st *storage.Store, opts tripstore.Options) (*tripstore.Warehouse, error) {
	if st != nil {
		opts.Log = &tripstore.LogOptions{Store: st}
	}
	return tripstore.New(opts)
}

// OpenViews returns an analytics engine seeded from the view snapshot in st;
// a nil st gives empty views. A snapshot this engine cannot load (other
// format version or view geometry, or corrupt) is logged and ignored: the
// views start empty and the next Bootstrap is a full replay.
func OpenViews(cfg analytics.Config, st *storage.Store) (*analytics.Engine, error) {
	an := analytics.New(cfg)
	if st == nil {
		return an, nil
	}
	switch loaded, err := an.LoadSnapshot(analytics.StoreOptions{Store: st}); {
	case errors.Is(err, analytics.ErrIncompatibleSnapshot):
		slog.Warn("ignoring analytics snapshot", "error", err)
	case err != nil:
		return nil, err
	case loaded:
		slog.Info("analytics views loaded from snapshot; replaying warehouse tail")
	}
	return an, nil
}

// Tee chains the sealed-trip stream in rule-1 order; a nil stage is left
// out. The result forwards the engine's device-left signal and Close down
// the chain.
func Tee(wh *tripstore.Warehouse, an *analytics.Engine, sink online.Emitter) online.Emitter {
	if an != nil {
		sink = an.Emitter(sink)
	}
	if wh != nil {
		sink = wh.Emitter(sink)
	}
	return sink
}

// Translate runs the batch Translator over ds into wh and an in rule-2
// order; either may be nil. On a restart over a persisted store the
// re-translated trips are all held already, so the views fold nothing,
// while a trip new to the warehouse that lies behind its device's fold
// frontier still counts as the backfill it is (RebuildRecommended).
func Translate(tr *core.Translator, ds *position.Dataset, wh *tripstore.Warehouse, an *analytics.Engine) ([]core.Result, error) {
	var sink core.ResultSink
	if an != nil {
		sink = an
	}
	if wh != nil {
		sink = wh.Sink(sink)
	}
	return tr.TranslateTo(ds, sink)
}

// Translate runs the batch Translator over ds through the pipeline's
// warehouse and views.
func (p *Pipeline) Translate(ds *position.Dataset) ([]core.Result, error) {
	return Translate(p.tr, ds, p.Warehouse, p.Analytics)
}

// Rebuild re-derives the views from the warehouse under live ingest.
func (p *Pipeline) Rebuild() error {
	return p.Analytics.Rebuild(p.Warehouse)
}

// Close shuts the pipeline down in rule-5 order and reports what failed. It
// may be called again to retry a failed warehouse flush.
func (p *Pipeline) Close() error {
	p.Engine.Close()
	var snapErr error
	if p.stopSnap != nil {
		snapErr = p.stopSnap()
	}
	return errors.Join(snapErr, p.Warehouse.Close())
}
