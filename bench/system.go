package main

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/fnv"
	"io/fs"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"trips/internal/analytics"
	"trips/internal/core"
	"trips/internal/online"
	"trips/internal/storage"
	"trips/internal/tripstore"
)

// system is the storage side of the pipeline, assembled the way
// trips.OpenWarehouse / OpenAnalytics / System.AttachAnalytics do it: one
// backend store directory holding the warehouse's segment log and the
// analytics view snapshot, the views bootstrapped from the warehouse.
type system struct {
	store *storage.Store
	wh    *tripstore.Warehouse
	an    *analytics.Engine
}

// openSystem opens (or reopens) the store at dir. On a fresh directory it
// is a few empty reads; on a written one it is the boot path reopen_s
// times: segment replay, snapshot load, tail bootstrap. tr may be nil.
func openSystem(dir string, par int, tr *tracer) (*system, error) {
	sp := tr.start("storage.Open")
	st, err := storage.Open(dir)
	sp.end(1)
	if err != nil {
		return nil, err
	}
	sp = tr.start("tripstore.New")
	wh, err := tripstore.New(tripstore.Options{
		Log:     &tripstore.LogOptions{Store: st},
		Metrics: tr.storeMetrics(),
	})
	sp.end(1)
	if err != nil {
		return nil, err
	}
	an := analytics.New(analytics.Config{Shards: par})
	sp = tr.start("analytics.LoadSnapshot")
	_, err = an.LoadSnapshot(analytics.StoreOptions{Store: st})
	sp.end(1)
	if err != nil && !errors.Is(err, analytics.ErrIncompatibleSnapshot) {
		return nil, err
	}
	sp = tr.start("analytics.Bootstrap")
	err = an.Bootstrap(wh)
	sp.end(1)
	if err != nil {
		return nil, err
	}
	return &system{store: st, wh: wh, an: an}, nil
}

// snapshotOptions locates the analytics snapshot, flushing the trip log
// first as trips-server does.
func (s *system) snapshotOptions() analytics.StoreOptions {
	return analytics.StoreOptions{Store: s.store, Sync: s.wh.Flush}
}

// engine starts an online engine whose sealed triplets fan through the
// warehouse, then the views, then sink — System.NewOnline's tee order. A
// traced run interposes a timing stage before each of the three, nested
// under the span root, so each tee's self time is its stage's span minus
// the next one's.
func (s *system) engine(tr *core.Translator, cfg online.Config, sink online.Emitter, trc *tracer, root int) (*online.Engine, error) {
	wrap := func(name string, next online.Emitter) online.Emitter {
		if trc == nil {
			return next
		}
		return &stage{t: trc, name: name, root: root, next: next}
	}
	cfg.Emitter = wrap("tee.warehouse", s.wh.Emitter(
		wrap("tee.analytics", s.an.Emitter(
			wrap("tee.sink", sink)))))
	return tr.NewOnline(cfg)
}

// viewsDigest hashes the canonical dump of every analytics view.
func (s *system) viewsDigest() (uint64, error) {
	raw, err := json.Marshal(s.an.Snapshot())
	if err != nil {
		return 0, err
	}
	h := fnv.New64a()
	h.Write(raw)
	return h.Sum64(), nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (bytes int64, files int, err error) {
	err = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		bytes += info.Size()
		files++
		return nil
	})
	return bytes, files, err
}

// collector is the sink at the end of the tee chain: it keeps every sealed
// trip with the instant it got there, which is when a dashboard could first
// see it. Shards emit concurrently.
type collector struct {
	mu    sync.Mutex
	trips []tripstore.Trip
	at    []time.Time
	// streamed counts the trips that arrived before markClosing: the rest
	// were sealed by the shutdown, not by the stream.
	streamed int
}

// markClosing is called once the feed has ended and been flushed, right
// before Engine.Close.
func (c *collector) markClosing() {
	c.mu.Lock()
	c.streamed = len(c.trips)
	c.mu.Unlock()
}

func (c *collector) add(t tripstore.Trip, now time.Time) {
	c.mu.Lock()
	c.trips = append(c.trips, t)
	c.at = append(c.at, now)
	c.mu.Unlock()
}

// Emit implements online.Emitter.
func (c *collector) Emit(e online.Emission) {
	c.add(tripstore.Trip{Device: e.Device, Seq: e.Seq, Triplet: e.Triplet}, time.Now())
}

// IngestResult implements core.ResultSink for the batch path.
func (c *collector) IngestResult(r core.Result) error {
	if r.Final == nil {
		return nil
	}
	now := time.Now()
	for i, t := range r.Final.Triplets {
		c.add(tripstore.Trip{Device: r.Device, Seq: i, Triplet: t}, now)
	}
	return nil
}

// tripsDigest hashes the observed trips, sorted by (device, From, Seq),
// with FNV-1a. The Complementor's inferred triplets are left out: they are
// the one part of the online engine's output that is not a function of its
// input, because all shards feed one knowledge store and which transitions
// a gap's inference has seen depends on how the shards interleaved.
func tripsDigest(trips []tripstore.Trip) uint64 {
	idx := make([]int, 0, len(trips))
	for i := range trips {
		if !trips[i].Triplet.Inferred {
			idx = append(idx, i)
		}
	}
	sort.Slice(idx, func(a, b int) bool {
		x, y := &trips[idx[a]], &trips[idx[b]]
		if x.Device != y.Device {
			return x.Device < y.Device
		}
		if !x.Triplet.From.Equal(y.Triplet.From) {
			return x.Triplet.From.Before(y.Triplet.From)
		}
		return x.Seq < y.Seq
	})
	h := fnv.New64a()
	var rec []byte
	for _, i := range idx {
		t := &trips[i]
		rec = append(rec[:0], t.Device...)
		rec = append(rec, t.Triplet.Event...)
		rec = append(rec, t.Triplet.RegionID...)
		rec = binary.LittleEndian.AppendUint64(rec, uint64(t.Triplet.From.UnixNano()))
		rec = binary.LittleEndian.AppendUint64(rec, uint64(t.Triplet.To.UnixNano()))
		h.Write(rec)
	}
	return h.Sum64()
}

// stopwatch times a phase in wall and process CPU time. stop and start
// pause it around a probe that must not count (the forced collections of
// live_heap_mb).
type stopwatch struct {
	wall, cpu time.Duration
	t0        time.Time
	c0        time.Duration
	first     time.Time // when the phase began
}

func (s *stopwatch) start() {
	s.c0, s.t0 = cpuTime(), time.Now()
	if s.first.IsZero() {
		s.first = s.t0
	}
}

func (s *stopwatch) stop() {
	s.wall += time.Since(s.t0)
	s.cpu += cpuTime() - s.c0
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeap forces a collection and returns the bytes still reachable: a
// function of the state the caller holds, not of when the collector last
// ran. It collects twice because a sync.Pool hands its contents to a victim
// cache that survives one cycle: encoding/json pools its output buffers, so
// after a snapshot write a document-sized buffer would count as live or not
// depending on whether a background cycle happened to run since.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
