package online

import (
	"errors"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"trips/internal/annotation"
	"trips/internal/cleaning"
	"trips/internal/obs/trace"
	"trips/internal/position"
	"trips/internal/semantics"
)

// ErrClosed is returned by Ingest after Close.
var ErrClosed = errors.New("online: engine closed")

// ErrBacklogged is returned by TryIngest when the record's shard inbox is
// full: the engine is not keeping up with the feed and the caller should
// shed load upstream (the server's ingest endpoint turns this into
// 429 + Retry-After) instead of queueing unboundedly.
var ErrBacklogged = errors.New("online: shard inbox full")

// Engine is the online translation engine: it shards devices across a
// fixed worker pool and runs a Session per device. Create with NewEngine
// (or core.Translator.NewOnline), feed it with Ingest or TryIngest, and
// Close it to seal every open session.
type Engine struct {
	pl        Pipeline
	cfg       Config
	horizon   time.Duration
	freezeGap time.Duration
	know      *knowledgeStore

	shards []*shard
	wg     sync.WaitGroup
	mu     sync.RWMutex
	closed bool

	stats engineStats

	// now is stubbed in tests to drive the idle timeout.
	now func() time.Time
}

// shard owns a subset of devices; its single goroutine serializes every
// session mutation, so per-device ordering is free and the session map
// needs no lock.
type shard struct {
	id       int
	ch       chan shardMsg
	sessions map[position.DeviceID]*session

	// clean and ann are the flush scratch all the shard's sessions share:
	// a session owns its caches, the shard owns the buffers a flush builds
	// in. Flushes and provisional queries both run on the shard goroutine,
	// so no two calls ever overlap.
	clean cleaning.Work
	ann   annotation.Work

	// open and tail are the shard's share of Stats.OpenSessions and
	// Stats.TailRecords. Only the shard goroutine writes them, so the
	// per-record update contends with nothing.
	open, tail atomic.Int64
}

// shardMsg is the shard inbox protocol, discriminated by kind. Records
// travel by value: the ingest route path must not allocate per record, and
// boxing the record behind a pointer would put one heap allocation on every
// ingested record. The trace context rides by value for the same reason —
// a zero tc (the untraced common case) costs nothing.
type shardMsg struct {
	kind  msgKind
	rec   position.Record
	tc    trace.Ctx
	query *queryMsg
	flush chan struct{} // flush barrier: run a seal pass, then close
}

type msgKind uint8

const (
	msgRecord msgKind = iota
	msgQuery
	msgFlush
)

// queryMsg is a per-device Snapshot query.
type queryMsg struct {
	dev   position.DeviceID
	reply chan Snapshot
}

// NewEngine validates the pipeline and starts the shard pool.
func NewEngine(pl Pipeline, cfg Config) (*Engine, error) {
	if err := pl.validate(); err != nil {
		return nil, err
	}
	if cfg.Emitter == nil {
		return nil, errors.New("online: Config.Emitter is required")
	}
	horizon, freezeGap := deriveWindows(pl.Annotator.Cfg)
	cfg.applyDefaults(horizon)

	e := &Engine{
		pl:        pl,
		cfg:       cfg,
		horizon:   horizon,
		freezeGap: freezeGap,
		know:      newKnowledgeStore(pl.Model, pl.KnowledgeJoinGap),
		now:       time.Now,
	}

	e.shards = make([]*shard, cfg.Shards)
	for i := range e.shards {
		e.shards[i] = &shard{
			id:       i,
			ch:       make(chan shardMsg, cfg.QueueLen),
			sessions: make(map[position.DeviceID]*session),
		}
		e.wg.Add(1)
		go e.runShard(e.shards[i])
	}
	return e, nil
}

// Horizon returns the seal horizon derived from the annotator's
// configuration.
//
//trips:api bench/ is a separate module and calls it
func (e *Engine) Horizon() time.Duration { return e.horizon }

// shardOf routes a device to its shard by FNV-1a over the ID bytes,
// inlined: hash.Hash32 plus io.WriteString on this path cost two heap
// allocations per ingested record. The constants and fold order match
// hash/fnv's New32a exactly, so shard assignment is unchanged.
//
//trips:zeroalloc
func (e *Engine) shardOf(dev position.DeviceID) *shard {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(dev); i++ {
		h ^= uint32(dev[i])
		h *= prime32
	}
	// Unsigned modulo: int(h) goes negative for half the hash space on
	// 32-bit ints, and a negative index panics.
	return e.shards[h%uint32(len(e.shards))]
}

func (e *Engine) send(em Emission) {
	e.cfg.Emitter.Emit(em)
	e.stats.Triplets.Add(1)
}

// Ingest routes one record to its device's shard, blocking when the shard
// inbox is full (backpressure rather than drops).
//
//trips:zeroalloc
//trips:api bench/ is a separate module and calls it
func (e *Engine) Ingest(r position.Record) error {
	return e.route(r, trace.Ctx{}, true)
}

// TryIngest routes one record to its device's shard without ever blocking:
// a full shard inbox returns ErrBacklogged instead of queueing, so a caller
// with its own backpressure channel (an HTTP ingest endpoint answering 429)
// can bound admission rather than letting blocked requests pile up. tc is
// the request's trace context; the zero value is an untraced record.
//
//trips:zeroalloc
func (e *Engine) TryIngest(r position.Record, tc trace.Ctx) error {
	return e.route(r, tc, false)
}

// route is the one ingest body. A sampled context gets an enqueue stamp so
// the shard side can record the inbox wait as a span; the zero context (the
// untraced common case) adds no clock read and no allocation.
//
//trips:zeroalloc
func (e *Engine) route(r position.Record, tc trace.Ctx, wait bool) error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return ErrClosed
	}
	if tc.Sampled() {
		//trips:allow wallclock: trace enqueue stamp, operational telemetry
		tc.Enq = time.Now().UnixNano()
	}
	ch := e.shardOf(r.Device).ch
	if wait {
		ch <- shardMsg{kind: msgRecord, rec: r, tc: tc}
		return nil
	}
	select {
	case ch <- shardMsg{kind: msgRecord, rec: r, tc: tc}:
		return nil
	default:
		e.stats.Backlogged.Add(1)
		return ErrBacklogged
	}
}

// Flush makes every shard drain its inbox and run a seal pass, then
// returns. It does not force-seal anything: only watermark-sealed triplets
// emit. Mostly useful for tests and benchmarks that disabled the timer.
func (e *Engine) Flush() {
	e.mu.RLock()
	if e.closed {
		e.mu.RUnlock()
		return
	}
	barriers := make([]chan struct{}, len(e.shards))
	for i, sh := range e.shards {
		barriers[i] = make(chan struct{})
		sh.ch <- shardMsg{kind: msgFlush, flush: barriers[i]}
	}
	e.mu.RUnlock()
	for _, b := range barriers {
		<-b
	}
}

// Close stops intake, seals and emits every open session, and shuts the
// shard pool down. If the configured Emitter implements io.Closer (the
// warehouse tee does, to flush its segment log), it is closed last. Close
// is idempotent.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	e.mu.Unlock()
	for _, sh := range e.shards {
		close(sh.ch)
	}
	e.wg.Wait()
	if c, ok := e.cfg.Emitter.(io.Closer); ok {
		c.Close()
	}
}

// Snapshot is the live view of one device: what has been emitted, what the
// open window currently looks like, and where the session sits in the
// pipeline — tail and admission state, the owning shard and its inbox
// depth, the stage breakdown of the most recent instrumented flush, and the
// trace (if any) waiting for its sealing flush. GET /live/{device} and
// GET /debug/device/{id} both serve it.
type Snapshot struct {
	Device position.DeviceID `json:"device"`
	Shard  int               `json:"shard"`
	// Emitted is the number of emissions so far (Seq of the next one).
	Emitted        int       `json:"emitted"`
	SealedThrough  time.Time `json:"sealedThrough,omitzero"`
	Watermark      time.Time `json:"watermark,omitzero"`
	TailRecords    int       `json:"tailRecords"`
	PendingRecords int       `json:"pendingRecords"`
	AdmissionFloor time.Time `json:"admissionFloor,omitzero"`
	// SealAt is the tail end at which the session's next flush can first
	// seal its oldest open triplet; a record reaching it flushes at once.
	// Zero while that seal waits on something other than the watermark.
	SealAt time.Time `json:"sealAt,omitzero"`
	// BacklogDepth is the owning shard's inbox depth when the query was
	// served: records admitted by ingest but not yet applied.
	BacklogDepth int `json:"backlogDepth"`
	// ActiveTrace is the sampled trace adopted by the session and awaiting
	// the flush that seals it, empty when none.
	ActiveTrace string          `json:"activeTrace,omitempty"`
	LastFlush   *FlushBreakdown `json:"lastFlush,omitempty"`
	// Provisional is the annotation of the open window: triplets that
	// exist now but may still change before sealing.
	Provisional []semantics.Triplet `json:"provisional,omitempty"`
}

// FlushBreakdown is the stage timing of a session's most recent
// instrumented flush that sealed something, or of its most recent
// instrumented flush while none has sealed. Stage timing runs when the
// engine has Metrics or the session carries a sampled trace; engines with
// neither never populate it.
type FlushBreakdown struct {
	At         time.Time `json:"at"`
	CleanMs    float64   `json:"clean_ms"`
	AnnotateMs float64   `json:"annotate_ms"`
	SealMs     float64   `json:"seal_ms"`
	// Sealed is how many emissions that flush produced.
	Sealed int `json:"sealed"`
}

// Snapshot queries a device's session on its owning shard. ok is false for
// a device with no live session or after Close.
func (e *Engine) Snapshot(dev position.DeviceID) (Snapshot, bool) {
	e.mu.RLock()
	if e.closed {
		e.mu.RUnlock()
		return Snapshot{}, false
	}
	q := &queryMsg{dev: dev, reply: make(chan Snapshot, 1)}
	e.shardOf(dev).ch <- shardMsg{kind: msgQuery, query: q}
	e.mu.RUnlock()
	snap := <-q.reply
	return snap, snap.Device != ""
}

// runShard is a shard's worker loop: it serializes ingest, flush, and
// query handling for its devices. Records flush their session when they
// reach its seal point (shard.ingest); the ticker is the fallback sweep
// for what that misses and drives idle-timeout flushing, so quiescent
// devices still seal their final triplet.
func (e *Engine) runShard(sh *shard) {
	defer e.wg.Done()
	var tick <-chan time.Time
	if e.cfg.FlushInterval > 0 {
		t := time.NewTicker(e.cfg.FlushInterval)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case m, ok := <-sh.ch:
			if !ok {
				//trips:commutative sessions are per-device; flushes land in per-device partitions and commutative folds
				for _, ss := range sh.sessions {
					sh.flush(e, ss, true)
				}
				sh.open.Add(-int64(len(sh.sessions)))
				return
			}
			switch m.kind {
			case msgRecord:
				sh.ingest(e, m.rec, m.tc)
			case msgQuery:
				m.query.reply <- sh.snapshot(e, m.query.dev)
			case msgFlush:
				//trips:commutative sessions are per-device; flushes land in per-device partitions and commutative folds
				for _, ss := range sh.sessions {
					if ss.pending > 0 {
						sh.flush(e, ss, false)
					}
				}
				close(m.flush)
			}
		case <-tick:
			now := e.now()
			//trips:commutative sessions are per-device; flush and idle expiry are per-device decisions
			for id, ss := range sh.sessions {
				if ss.pending > 0 {
					sh.flush(e, ss, false)
				}
				if e.cfg.IdleTimeout > 0 &&
					now.Sub(ss.lastArrival) > e.cfg.IdleTimeout {
					if ss.tail.Len() > 0 {
						sh.flush(e, ss, true)
						e.stats.IdleFinalized.Add(1)
					}
					// Evict the quiescent session so churning device IDs
					// (MAC randomization) don't grow the map forever. A
					// returning device starts a fresh epoch.
					delete(sh.sessions, id)
					sh.open.Add(-1)
					// The eviction is positive evidence the device is gone;
					// tell a finalizer-aware sink (the analytics tee uses it
					// to decay occupancy) after the final triplets emitted.
					if f, ok := e.cfg.Emitter.(SessionFinalizer); ok && !ss.sealedThrough.IsZero() {
						f.FinalizeSession(ss.dev, ss.sealedThrough)
					}
				}
			}
		}
	}
}

func (sh *shard) ingest(e *Engine, r position.Record, tc trace.Ctx) {
	ss := sh.sessions[r.Device]
	if ss == nil {
		ss = newSession(e, sh, r.Device)
		ss.lastArrival = e.now()
		sh.sessions[r.Device] = ss
		e.stats.Sessions.Add(1)
		sh.open.Add(1)
	}
	outcome := ss.ingest(e, r)
	if tc.Sampled() && e.cfg.Tracer != nil {
		sh.traceAdmit(e, ss, tc, outcome)
	}
	switch outcome {
	case admitLate:
		e.stats.Late.Add(1)
		return
	case admitDuplicate:
		e.stats.Duplicates.Add(1)
		return
	}
	e.stats.Records.Add(1)
	sh.tail.Add(1)
	switch {
	case ss.pending >= e.cfg.FlushEvery:
		sh.flush(e, ss, false)
	case e.cfg.FlushInterval > 0 && !ss.sealAt.IsZero() && !r.At.Before(ss.sealAt):
		// This record is the evidence the oldest open triplet waited
		// for: seal it now rather than at the next sweep.
		e.stats.EvidenceFlushes.Add(1)
		sh.flush(e, ss, false)
	}
}

// flush runs one session flush and books the records it released from the
// session's tail.
func (sh *shard) flush(e *Engine, ss *session, sealAll bool) {
	n := ss.tail.Len()
	ss.flush(e, sealAll)
	sh.tail.Add(int64(ss.tail.Len() - n))
}

// traceAdmit records the shard-side fate of a sampled record: on admission
// the session adopts the request's trace (with an explicit queue-wait span
// from the ingest enqueue stamp to now), on a drop it records a drop span.
// Both record at most once per traced request — a traced batch of
// thousands of records contributes a handful of spans, not thousands — and
// a session holding an earlier trace keeps it until its sealing flush
// commits the stage spans. A request whose trace that flush committed
// does not adopt the session again with its later records.
func (sh *shard) traceAdmit(e *Engine, ss *session, tc trace.Ctx, outcome admit) {
	if outcome == admitOK {
		if ss.trace.Sampled() || tc.Trace == ss.doneTrace {
			return
		}
		ss.trace = tc
		sp := e.cfg.Tracer.Start(tc, "enqueue")
		sp.SetDevice(string(ss.dev))
		sp.SetShard(sh.id)
		if tc.Enq > 0 {
			sp.SetStart(time.Unix(0, tc.Enq))
		}
		sp.End()
		return
	}
	// Dedupe drop spans by the request's root span; a parentless context
	// (tests feeding the engine directly) records every drop.
	if !tc.Span.IsZero() {
		if ss.dropSpan == tc.Span {
			return
		}
		ss.dropSpan = tc.Span
	}
	name := "drop_duplicate"
	if outcome == admitLate {
		name = "drop_late"
	}
	sp := e.cfg.Tracer.Start(tc, name)
	sp.SetDevice(string(ss.dev))
	sp.SetShard(sh.id)
	if outcome == admitLate {
		// A late drop is data loss downstream of sealing — pin the trace so
		// the affected request is inspectable after the fact.
		sp.SetErr()
	}
	sp.End()
}

func (sh *shard) snapshot(e *Engine, dev position.DeviceID) Snapshot {
	ss := sh.sessions[dev]
	if ss == nil {
		return Snapshot{}
	}
	snap := Snapshot{
		Device:         dev,
		Shard:          sh.id,
		Emitted:        ss.seq,
		SealedThrough:  ss.sealedThrough,
		Watermark:      ss.tail.End(),
		TailRecords:    ss.tail.Len(),
		PendingRecords: ss.pending,
		AdmissionFloor: ss.admissionFloor(e),
		SealAt:         ss.sealAt,
		BacklogDepth:   len(sh.ch),
		Provisional:    ss.provisional(e),
	}
	if ss.trace.Sampled() {
		snap.ActiveTrace = ss.trace.Trace.String()
	}
	if !ss.lastFlushAt.IsZero() {
		snap.LastFlush = &FlushBreakdown{
			At:         ss.lastFlushAt,
			CleanMs:    float64(ss.lastClean) / float64(time.Millisecond),
			AnnotateMs: float64(ss.lastAnnotate) / float64(time.Millisecond),
			SealMs:     float64(ss.lastSeal) / float64(time.Millisecond),
			Sealed:     ss.lastSealed,
		}
	}
	return snap
}
