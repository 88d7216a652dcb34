// Package trace is the in-process distributed-tracing core of TRIPS:
// 128-bit trace IDs, sampled span recording, and a bounded in-memory ring
// of completed traces with tail-based keep decisions. It is dependency-free
// (stdlib only) and — by design — imports nothing else from this
// repository, so every layer a record crosses (HTTP ingest, the online
// engine's shards, the warehouse, the analytics fold) can carry a Ctx
// without import cycles.
//
// # Sampling model
//
// The keep/drop decision is made once per request at ingest admission
// (head sampling): Tracer.Sample rolls against the configured rate, and an
// inbound X-Trace-Id header forces sampling (Tracer.Force) so a client or
// a CI smoke test can always get its trace back. Unsampled requests still
// receive a trace ID — logs correlate either way — but their Ctx carries
// no Sampled flag, Start returns an inert SpanRec, and nothing is recorded:
// the untraced hot path stays allocation-free and takes no lock.
//
// On top of head sampling sits a tail-based always-keep: a completed trace
// is pinned against ring eviction when it was slow (total duration over
// Config.KeepOver), hit an error (429 push-back, a failed warehouse
// append, a late-record drop), or was forced. The ring therefore holds a
// rolling window of recent traces in which the pathological ones survive
// longest — exactly the ones an SLO regression needs to explain itself.
//
// # Concurrency
//
// One mutex guards the assembly state. A finished span of a sampled trace
// is filed under it directly — grouped by trace, completing the trace when
// its terminal span arrives — so no span can be lost and a trace finalizes
// without anyone querying. Only sampled requests (1% by default, a handful
// of spans each) ever take the lock; sampling decisions and inert spans
// touch nothing but an atomic counter.
package trace

import (
	"encoding/binary"
	"encoding/hex"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID is a 128-bit trace identifier, rendered as 32 hex digits.
type TraceID [16]byte

// IsZero reports whether the ID is unset.
func (id TraceID) IsZero() bool { return id == TraceID{} }

// String renders the ID as 32 lowercase hex digits.
func (id TraceID) String() string {
	var b [32]byte
	hex.Encode(b[:], id[:])
	return string(b[:])
}

// ParseTraceID parses a 32-hex-digit trace ID (the X-Trace-Id wire form).
// The all-zero ID is rejected: it is the "no trace" sentinel.
func ParseTraceID(s string) (TraceID, bool) {
	var id TraceID
	if len(s) != 32 {
		return TraceID{}, false
	}
	if _, err := hex.Decode(id[:], []byte(s)); err != nil || id.IsZero() {
		return TraceID{}, false
	}
	return id, true
}

// SpanID is a 64-bit span identifier within a trace.
type SpanID [8]byte

// IsZero reports whether the ID is unset.
func (id SpanID) IsZero() bool { return id == SpanID{} }

// String renders the ID as 16 lowercase hex digits.
func (id SpanID) String() string {
	var b [16]byte
	hex.Encode(b[:], id[:])
	return string(b[:])
}

// Ctx flag bits.
const (
	// FlagSampled marks a context whose spans are recorded. Contexts
	// without it are log-correlation-only: they carry an ID but no span
	// ever records under them.
	FlagSampled uint8 = 1 << iota
	// FlagForced marks a trace pinned by the caller (inbound X-Trace-Id);
	// forced traces are always kept in the completed ring.
	FlagForced
)

// Ctx is the trace context that travels with a record through the
// pipeline. It is a small value type — no pointers, no allocation — so it
// rides inside the online engine's by-value shard messages and emissions
// without putting a heap allocation on the ingest route. The zero Ctx
// means "untraced" and makes every operation on it a no-op.
type Ctx struct {
	Trace TraceID
	// Span is the parent span for anything started from this context.
	Span  SpanID
	Flags uint8
	// Enq is a UnixNano enqueue stamp set when the context enters an
	// asynchronous hop (the shard inbox); the dequeuing side turns it into
	// an explicit queue-wait span. Zero when unused.
	Enq int64
}

// Sampled reports whether spans under this context are recorded.
func (c Ctx) Sampled() bool { return c.Flags&FlagSampled != 0 }

// Forced reports whether the trace was pinned by the caller.
func (c Ctx) Forced() bool { return c.Flags&FlagForced != 0 }

// Span is one recorded operation of a trace.
type Span struct {
	Trace  TraceID
	ID     SpanID
	Parent SpanID
	Name   string
	// Device and Shard attribute the span to the pipeline entity that ran
	// it; Shard is -1 when not applicable.
	Device string
	Shard  int
	// Err marks a failed operation; Keep requests tail-keep for the whole
	// trace (errors imply it).
	Err  bool
	Keep bool
	Start,
	End time.Time
}

// Duration is the span's wall-clock extent.
func (s Span) Duration() time.Duration { return s.End.Sub(s.Start) }

// Config parameterizes a Tracer. The zero value of every field selects a
// sensible default; a zero SampleRate disables head sampling (forced
// traces still record).
type Config struct {
	// SampleRate is the head-sampling probability in [0, 1].
	SampleRate float64

	// RingSize bounds the completed-trace ring. Default 256.
	RingSize int

	// KeepOver is the tail-keep latency threshold: a completed trace at
	// least this slow end-to-end is pinned against ring eviction. Default
	// 250ms.
	KeepOver time.Duration

	// Linger is how long an incomplete trace may stay quiet before it is
	// finalized as-is (its terminal span never arrived — a record that
	// sealed nothing, a fold that never happened). Default 5s.
	Linger time.Duration
}

// terminalSpan is the span name whose completion finalizes a trace
// immediately: analytics_fold, the last synchronous stage of the ingest
// pipeline.
const terminalSpan = "analytics_fold"

func (c *Config) applyDefaults() {
	if c.RingSize <= 0 {
		c.RingSize = 256
	}
	if c.KeepOver <= 0 {
		c.KeepOver = 250 * time.Millisecond
	}
	if c.Linger <= 0 {
		c.Linger = 5 * time.Second
	}
}

// Tracer records sampled spans and assembles them into completed traces.
// All recording methods are nil-receiver-safe no-ops, so instrumented
// packages hold a plain *Tracer and skip every guard.
type Tracer struct {
	cfg Config
	// threshold is the head-sampling cut on a uniform uint64 roll; all
	// short-circuits rate >= 1 so tests get deterministic full sampling.
	threshold uint64
	all       bool
	rng       atomic.Uint64

	sampled atomic.Int64 // traces started (head-sampled or forced)

	mu      sync.Mutex
	pending map[TraceID]*pendingTrace
	ring    []*Trace // completed traces, oldest first
	index   map[TraceID]*Trace
	kept    int64     // completed traces that entered the ring
	evicted int64     // completed traces evicted from the ring
	swept   time.Time // last linger sweep
}

// New returns a Tracer with the given configuration.
func New(cfg Config) *Tracer {
	cfg.applyDefaults()
	t := &Tracer{
		cfg:     cfg,
		all:     cfg.SampleRate >= 1,
		pending: make(map[TraceID]*pendingTrace),
		index:   make(map[TraceID]*Trace),
	}
	if cfg.SampleRate > 0 && !t.all {
		t.threshold = uint64(cfg.SampleRate * float64(^uint64(0)))
	}
	t.rng.Store(uint64(time.Now().UnixNano()) | 1)
	return t
}

// rand64 is a splitmix64 step over an atomic state: statistically fine for
// sampling and ID generation, and allocation-free.
func (t *Tracer) rand64() uint64 {
	x := t.rng.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Sample makes the head-sampling decision for one request. The returned
// context always carries a fresh trace ID — access logs correlate even for
// unsampled requests — but only a winning roll sets the Sampled flag, and
// only sampled contexts ever record spans. Allocation-free.
//
//trips:zeroalloc
func (t *Tracer) Sample() Ctx {
	if t == nil {
		return Ctx{}
	}
	roll := t.rand64()
	var c Ctx
	binary.BigEndian.PutUint64(c.Trace[0:8], roll)
	binary.BigEndian.PutUint64(c.Trace[8:16], t.rand64())
	if t.all || (t.threshold > 0 && roll < t.threshold) {
		c.Flags = FlagSampled
		t.sampled.Add(1)
	}
	return c
}

// Force returns a sampled, pinned context on the given trace ID — the
// inbound X-Trace-Id path. Forced traces bypass the sampling roll and are
// always kept in the completed ring.
//
//trips:zeroalloc
func (t *Tracer) Force(id TraceID) Ctx {
	if t == nil || id.IsZero() {
		return Ctx{}
	}
	t.sampled.Add(1)
	return Ctx{Trace: id, Flags: FlagSampled | FlagForced}
}

// SpanRec is an in-progress span. The zero value (returned for unsampled
// contexts or a nil tracer) is inert: every method is a no-op, so call
// sites need no sampling guards. End (or EndAt) records the span; a
// SpanRec that is never ended is silently discarded — the mechanism the
// engine uses to drop stage spans of flushes that sealed nothing.
type SpanRec struct {
	t *Tracer
	s Span
}

// Start opens a span under parent. Inert when the tracer is nil or the
// parent is unsampled.
//
//trips:zeroalloc
func (t *Tracer) Start(parent Ctx, name string) SpanRec {
	if t == nil || !parent.Sampled() {
		return SpanRec{}
	}
	sr := SpanRec{t: t, s: Span{
		Trace:  parent.Trace,
		Parent: parent.Span,
		Name:   name,
		Shard:  -1,
		Keep:   parent.Forced(),
		Start:  time.Now(),
	}}
	binary.BigEndian.PutUint64(sr.s.ID[:], t.rand64())
	return sr
}

// Ctx returns the context for child spans of this one, preserving the
// forced pin.
//
//trips:zeroalloc
func (sr *SpanRec) Ctx() Ctx {
	if sr.t == nil {
		return Ctx{}
	}
	f := FlagSampled
	if sr.s.Keep {
		f |= FlagForced
	}
	return Ctx{Trace: sr.s.Trace, Span: sr.s.ID, Flags: f}
}

// SetDevice attributes the span to a device.
//
//trips:zeroalloc
func (sr *SpanRec) SetDevice(dev string) {
	if sr.t != nil {
		sr.s.Device = dev
	}
}

// SetShard attributes the span to a worker shard.
//
//trips:zeroalloc
func (sr *SpanRec) SetShard(id int) {
	if sr.t != nil {
		sr.s.Shard = id
	}
}

// SetErr marks the span failed; an errored span pins its whole trace.
//
//trips:zeroalloc
func (sr *SpanRec) SetErr() {
	if sr.t != nil {
		sr.s.Err = true
		sr.s.Keep = true
	}
}

// SetKeep pins the trace without marking an error (force-seal and similar
// noteworthy-but-not-failed events).
//
//trips:zeroalloc
func (sr *SpanRec) SetKeep() {
	if sr.t != nil {
		sr.s.Keep = true
	}
}

// SetStart back-dates the span (queue-wait spans whose extent was measured
// before the span object existed).
//
//trips:zeroalloc
func (sr *SpanRec) SetStart(at time.Time) {
	if sr.t != nil && !at.IsZero() {
		sr.s.Start = at
	}
}

// End records the span now. Idempotent: the second End is a no-op.
func (sr *SpanRec) End() {
	if sr.t == nil {
		return
	}
	sr.EndAt(time.Now())
}

// EndAt records the span with an explicit end instant.
func (sr *SpanRec) EndAt(at time.Time) {
	if sr.t == nil {
		return
	}
	sr.s.End = at
	sr.t.record(sr.s)
	sr.t = nil
}

// record files one finished span into the assembly state; a trace whose
// terminal span just arrived completes on the spot. The linger sweep runs
// here as well as on every query, so traces finalize even when nobody asks
// — at most once per linger window, which keeps a span O(1) when
// -trace-sample 1 under load leaves thousands of traces lingering.
func (t *Tracer) record(s Span) {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.addSpanLocked(s, now)
	if now.Sub(t.swept) >= t.cfg.Linger {
		t.finalizeLocked(now)
	}
}
