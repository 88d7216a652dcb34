// Package tripstore is the queryable trip warehouse of TRIPS: an indexed,
// concurrency-safe store for translated trips, realizing the paper's Sec. 4
// backend — translation results "stored in the backend for the reuse in
// other translation tasks in the same indoor space" — as something heavy
// read traffic can actually hit.
//
// # Data model
//
// The unit is a Trip: one finalized mobility-semantics triplet identified
// by (device, start instant) — a device's timeline has at most one trip
// starting at any instant, whichever producer emitted it. Both producers
// feed the same ingest path: the batch Translator's per-device results
// (IngestResult / IngestSequence) and the online engine's sealed emissions
// (Emitter fans them straight in). Duplicate keys are ignored (first write
// wins), which makes replay, re-ingestion, at-least-once emitters, and
// batch/online double-translation of the same records idempotent, while
// per-producer sequence numbers (which restart per engine epoch) never
// collide across producers.
//
// # In-memory layer
//
// Three indexes answer every query without a full scan:
//
//   - per-device partitions holding time-ordered triplet runs, each also
//     its device's (device, start instant) dedupe index,
//   - a per-region inverted posting list (by RegionID and by semantic tag),
//   - a global interval index over trip time spans: a From-ordered list
//     plus the maximum trip duration, so the trips overlapping [since,
//     until) all lie in the From-window [since−maxDur, until), found by
//     binary search.
//
// Index order maintenance is amortized: ingest appends and marks the index
// dirty; the next query sorts once. All indexes share one global order
// (From, Device, Seq), so pagination cursors are stable across plans.
//
// # Durability layer
//
// An optional append-only segment log rides on internal/storage: ingested
// trips buffer in memory and flush as batched JSON segment documents, each
// written once and never rewritten. The segments are the warehouse's only
// durable form, so Open replays them in write order and a reopened
// warehouse answers every query identically.
package tripstore

import (
	"errors"
	"sort"
	"sync"
	"time"

	"trips/internal/core"
	"trips/internal/obs/trace"
	"trips/internal/online"
	"trips/internal/position"
	"trips/internal/semantics"
)

// Trip is one warehoused mobility-semantics triplet. Seq is the triplet's
// position in its producer's output (the online engine's emission index,
// or the index within a batch result's final sequence); identity for
// dedupe is (Device, Triplet.From), since producer sequence numbers
// restart per epoch.
type Trip struct {
	Device  position.DeviceID `json:"device"`
	Seq     int               `json:"seq"`
	Triplet semantics.Triplet `json:"triplet"`
}

// key orders trips globally by (From, Device, Seq); every index shares this
// order, so pagination cursors remain valid across query plans.
type key struct {
	from time.Time
	dev  position.DeviceID
	seq  int
}

func (t *Trip) key() key { return key{t.Triplet.From, t.Device, t.Seq} }

func (k key) less(o key) bool {
	if !k.from.Equal(o.from) {
		return k.from.Before(o.from)
	}
	if k.dev != o.dev {
		return k.dev < o.dev
	}
	return k.seq < o.seq
}

// Options configures a Warehouse.
type Options struct {
	// Log enables the durability layer; nil keeps the warehouse
	// memory-only.
	Log *LogOptions

	// Metrics receives segment-write and query latency observations; nil
	// disables them.
	Metrics *Metrics

	// Tracer records a warehouse_append span for every traced emission the
	// Emitter files (see online.Emission.Trace); nil disables it.
	Tracer *trace.Tracer
}

// ErrClosed is returned by operations on a closed warehouse.
var ErrClosed = errors.New("tripstore: warehouse closed")

// Warehouse is the indexed trip store. Safe for concurrent use: ingest
// takes the write lock, queries the read lock.
type Warehouse struct {
	mu     sync.RWMutex
	closed bool

	parts    map[position.DeviceID]*posting // per-device partitions
	byID     map[string]*posting            // inverted: RegionID → trips
	byTag    map[string]*posting            // inverted: semantic tag → trips
	byTime   posting                        // interval index over all trips
	maxDur   time.Duration                  // longest trip span seen (interval bound)
	total    int
	dupes    int
	inferred int
	// droppedEmits counts emitter deliveries lost to a closed warehouse
	// (the engine outlived it) — zero in a correctly ordered shutdown.
	droppedEmits int

	log     *segmentLog   // nil = memory-only
	metrics *Metrics      // nil = uninstrumented
	tracer  *trace.Tracer // nil = untraced
	// inflight counts detached batches whose disk write is still running;
	// Close waits for them so a failed write's requeued batch is retried
	// by Close itself rather than stranded after a nil return.
	inflight sync.WaitGroup
}

// New returns an open warehouse. With Options.Log set it opens the segment
// log and replays the persisted segments.
func New(opts Options) (*Warehouse, error) {
	w := &Warehouse{
		parts:   make(map[position.DeviceID]*posting),
		byID:    make(map[string]*posting),
		byTag:   make(map[string]*posting),
		metrics: opts.Metrics,
		tracer:  opts.Tracer,
	}
	if opts.Log != nil {
		log, err := openSegmentLog(opts.Log.Store)
		if err != nil {
			return nil, err
		}
		w.log = log
		if err := log.replay(func(t Trip) { w.insert(t) }); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// Insert files one trip into every index and, when the log is enabled,
// appends it to the pending segment. A duplicate (Device, Triplet.From)
// is counted and dropped. Inserting into a closed warehouse returns
// ErrClosed. Disk writes (one per full batch) happen outside the
// warehouse lock, so queries never wait on I/O.
func (w *Warehouse) Insert(t Trip) error {
	_, err := w.file(t)
	return err
}

// file is Insert that also reports whether the trip was new.
func (w *Warehouse) file(t Trip) (bool, error) {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return false, ErrClosed
	}
	if !w.insert(t) {
		w.mu.Unlock()
		return false, nil
	}
	if w.log == nil {
		w.mu.Unlock()
		return true, nil
	}
	w.log.pending = append(w.log.pending, t)
	var batch []Trip
	var seq int
	if len(w.log.pending) >= segmentBatch {
		batch, seq = w.log.detach()
		w.inflight.Add(1)
	}
	w.mu.Unlock()
	if batch == nil {
		return true, nil
	}
	defer w.inflight.Done()
	return true, w.writeSegment(seq, batch)
}

// writeSegment performs the off-lock disk write of a detached batch,
// requeueing it for retry on failure. The live-segment counter tracks
// successful writes only, so abandoned segment numbers never inflate it.
func (w *Warehouse) writeSegment(seq int, batch []Trip) error {
	var start time.Time
	if w.metrics != nil {
		//trips:allow wallclock: segment-write latency metric
		start = time.Now()
	}
	err := w.log.writeSegment(seq, batch)
	if w.metrics != nil {
		w.metrics.SegmentWriteSeconds.ObserveSince(start)
	}
	w.mu.Lock()
	if err != nil {
		w.log.requeue(batch)
	} else {
		w.log.segments++
	}
	w.mu.Unlock()
	return err
}

// insert files the trip in memory only; callers hold the write lock. It
// reports whether the trip was new.
func (w *Warehouse) insert(t Trip) bool {
	p := w.parts[t.Device]
	if p == nil {
		p = new(posting)
		w.parts[t.Device] = p
	}
	if p.startsAt(t.Triplet.From) {
		w.dupes++
		return false
	}

	tp := new(Trip)
	*tp = t
	p.add(tp)
	w.byTime.add(tp)
	if id := string(t.Triplet.RegionID); id != "" {
		w.postingFor(w.byID, id).add(tp)
	}
	if tag := t.Triplet.Region; tag != "" {
		w.postingFor(w.byTag, tag).add(tp)
	}
	if d := t.Triplet.Duration(); d > w.maxDur {
		w.maxDur = d
	}
	if t.Triplet.Inferred {
		w.inferred++
	}
	w.total++
	return true
}

func (w *Warehouse) postingFor(m map[string]*posting, k string) *posting {
	p := m[k]
	if p == nil {
		p = new(posting)
		m[k] = p
	}
	return p
}

// IngestResult files every triplet of a batch translation result,
// implementing core.ResultSink.
func (w *Warehouse) IngestResult(r core.Result) error {
	return storeSink{w: w}.IngestResult(r)
}

// IngestSequence files a whole semantics sequence for a device; Seq is the
// triplet's index within the sequence.
func (w *Warehouse) IngestSequence(dev position.DeviceID, s *semantics.Sequence) error {
	return w.IngestResult(core.Result{Device: dev, Final: s})
}

// Sink returns the batch twin of Emitter: a core.ResultSink that files
// every result into the warehouse and forwards to next (which may be nil)
// only the triplets the warehouse had not stored before. Whatever the
// warehouse already held has already been forwarded (or replayed from it),
// so a re-translation of stored trips reaches next as nothing, while a new
// trip reaches it even when it lies behind everything next has seen.
func (w *Warehouse) Sink(next core.ResultSink) core.ResultSink {
	return storeSink{w: w, next: next}
}

type storeSink struct {
	w    *Warehouse
	next core.ResultSink
}

func (ss storeSink) IngestResult(r core.Result) error {
	if r.Final == nil {
		return nil
	}
	var fresh []semantics.Triplet
	for i, t := range r.Final.Triplets {
		stored, err := ss.w.file(Trip{Device: r.Device, Seq: i, Triplet: t})
		if err != nil {
			return err
		}
		if stored && ss.next != nil {
			fresh = append(fresh, t)
		}
	}
	if len(fresh) == 0 {
		return nil
	}
	r.Final = &semantics.Sequence{Device: r.Final.Device, Triplets: fresh}
	return ss.next.IngestResult(r)
}

// Emitter returns an online.Emitter that fans every sealed emission into
// the warehouse and forwards it to next (which may be nil). Closing the
// returned emitter — the online engine does on shutdown — flushes the
// warehouse's pending segment and closes next if it is closable; the
// warehouse itself stays open.
func (w *Warehouse) Emitter(next online.Emitter) online.Emitter {
	return &storeEmitter{w: w, next: next}
}

type storeEmitter struct {
	w    *Warehouse
	next online.Emitter
}

func (se *storeEmitter) Emit(e online.Emission) {
	// Inert unless the emission carries a sampled trace context (the
	// sealing flush's seal span).
	sp := se.w.tracer.Start(e.Trace, "warehouse_append")
	sp.SetDevice(string(e.Device))
	// The engine's contract has no error path. A failed segment write
	// requeues its batch (the data surfaces on a later Flush/Close), but
	// an emission after Warehouse.Close is genuinely lost — close the
	// engine before the warehouse; DroppedEmissions counts violations.
	if err := se.w.Insert(Trip{Device: e.Device, Seq: e.Seq, Triplet: e.Triplet}); err != nil {
		sp.SetErr()
		se.w.mu.Lock()
		se.w.droppedEmits++
		se.w.mu.Unlock()
	}
	sp.End()
	if se.next != nil {
		se.next.Emit(e)
	}
}

// FinalizeSession forwards the engine's idle-finalize signal down the tee
// chain (the analytics tee consumes it); the warehouse itself keeps every
// sealed trip regardless of whether its device is gone.
func (se *storeEmitter) FinalizeSession(dev position.DeviceID, at time.Time) {
	if f, ok := se.next.(online.SessionFinalizer); ok {
		f.FinalizeSession(dev, at)
	}
}

// Close implements io.Closer so online.Engine.Close flushes the warehouse's
// pending segment when the engine shuts down.
func (se *storeEmitter) Close() error {
	err := se.w.Flush()
	if c, ok := se.next.(interface{ Close() error }); ok {
		if cerr := c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Flush forces the pending segment to disk (outside the warehouse lock).
// A no-op for memory-only warehouses.
func (w *Warehouse) Flush() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return ErrClosed
	}
	if w.log == nil {
		w.mu.Unlock()
		return nil
	}
	batch, seq := w.log.detach()
	if batch != nil {
		w.inflight.Add(1)
	}
	w.mu.Unlock()
	if batch == nil {
		return nil
	}
	defer w.inflight.Done()
	return w.writeSegment(seq, batch)
}

// Snapshot is Flush: the segment log is the warehouse's complete durable
// state, so there is nothing else to write. The name stays only because
// bench/serve.go calls it; ROADMAP item 1(e) removes it.
func (w *Warehouse) Snapshot() error { return w.Flush() }

// Close flushes pending writes and marks the warehouse closed. Further
// inserts, queries and flushes return ErrClosed. Close waits for in-flight
// segment writes first, so a batch requeued by a concurrent write failure
// is flushed (or reported) by Close itself, and Close is retryable: while
// any batch remains unwritten, Close keeps returning the write error
// rather than success over lost data.
func (w *Warehouse) Close() error {
	w.mu.Lock()
	w.closed = true
	if w.log == nil {
		w.mu.Unlock()
		return nil
	}
	w.mu.Unlock()
	w.inflight.Wait() // failed concurrent writes requeue before this returns
	w.mu.Lock()
	batch, seq := w.log.detach()
	w.mu.Unlock()
	if batch == nil {
		return nil
	}
	return w.writeSegment(seq, batch)
}

// Stats describes the warehouse contents.
type Stats struct {
	Trips      int `json:"trips"`
	Devices    int `json:"devices"`
	Regions    int `json:"regions"` // distinct region IDs indexed
	Inferred   int `json:"inferred"`
	Duplicates int `json:"duplicates"`
	// DroppedEmissions counts online emissions that arrived after Close
	// and were lost; nonzero means the engine outlived the warehouse.
	DroppedEmissions int `json:"droppedEmissions,omitempty"`
	// Segments is the number of segment files on disk; PendingLog the
	// buffered trips not yet in any segment. Both are zero for memory-only
	// warehouses.
	Segments   int `json:"segments"`
	PendingLog int `json:"pendingLog"`
	// MaxTripSpan is the longest trip duration seen, the interval-index
	// search bound.
	MaxTripSpan time.Duration `json:"maxTripSpan"`
}

// Stats snapshots the warehouse counters.
func (w *Warehouse) Stats() Stats {
	w.mu.RLock()
	defer w.mu.RUnlock()
	st := Stats{
		Trips:            w.total,
		Devices:          len(w.parts),
		Regions:          len(w.byID),
		Inferred:         w.inferred,
		Duplicates:       w.dupes,
		DroppedEmissions: w.droppedEmits,
		MaxTripSpan:      w.maxDur,
	}
	if w.log != nil {
		st.Segments = w.log.segments
		st.PendingLog = len(w.log.pending)
	}
	return st
}

// Devices returns the warehoused device IDs, sorted.
func (w *Warehouse) Devices() []position.DeviceID {
	w.mu.RLock()
	defer w.mu.RUnlock()
	out := make([]position.DeviceID, 0, len(w.parts))
	//trips:commutative key collection; iteration order is erased by the sort below
	for dev := range w.parts {
		out = append(out, dev)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Regions returns the distinct region IDs with at least one trip, sorted.
func (w *Warehouse) Regions() []string {
	w.mu.RLock()
	defer w.mu.RUnlock()
	out := make([]string, 0, len(w.byID))
	//trips:commutative key collection; iteration order is erased by the sort below
	for id := range w.byID {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}
