// Package online is the streaming translation engine of TRIPS: it runs the
// three-layer pipeline (topology cleaning → density split + learned
// annotation → Markov/MAP complementing) incrementally over live
// positioning feeds, emitting finalized mobility semantics triplets as soon
// as their window seals instead of after a full batch.
//
// # Design
//
// Devices are sharded across a fixed worker pool (hash(DeviceID) mod N, one
// goroutine per shard), so per-device ordering needs no locks. Each device
// owns a Session: the raw record tail not yet sealed away, the count of
// triplets already emitted from that tail, and the last emitted triplet for
// gap complementing. A flush recomputes clean+annotate over the tail — the
// same code path as the batch Translator, so a flush at end-of-stream
// reproduces the batch output exactly — and emits the prefix of triplets
// that are sealed: provably unreachable by any future record. A session
// keeps its tail and the incremental caches its next flush reads; the
// scratch a flush builds in belongs to the shard, which flushes one
// session at a time.
//
// # Sealing
//
// A triplet t is sealed when the session watermark W (the latest record
// time seen) has advanced past t.To by more than the seal horizon
//
//	horizon = 2·EpsTime + max(Split.MaxGap, TinyJoinGap, MergeGap) + 1s
//
// and t's records are outside the cleaner's trailing invalid run (whose
// repairs still depend on a future anchor). The horizon covers every
// backward-reaching rule of the pipeline: the density neighborhood
// (EpsTime, twice for the majority smoothing), the unconditional split gap
// (MaxGap), the tiny-snippet backward merge (TinyJoinGap), and the
// same-region consolidation (MergeGap). When a sealed triplet is followed
// within MergeGap by the next triplet, sealing additionally waits until
// that neighbor is membership-frozen (its end more than MaxGap+2·EpsTime
// behind the watermark), freezing the consolidation decision without
// requiring the neighbor itself to seal. Records arriving behind these
// frontiers are counted as late and dropped — in-order feeds never
// trigger this.
//
// A flush runs when a record makes the session's next trip sealable.
// Each session keeps sealAt, the tail end at which the rules above first
// pass its oldest unsealed triplet (a horizon after the first record of
// an empty or freshly trimmed tail), and an admitted record at or past it
// flushes the session on the spot. The point is a hint, never a gate: the
// per-shard sweep (Config.FlushInterval), Config.FlushEvery, Flush and
// Close flush as they always did, so a triplet the hint misses seals no
// later than the sweep would have sealed it. A seal held back by the
// trailing invalid run or a freezing neighbour gets no hint, and waits
// for those.
//
// # Trimming
//
// Sealed records are trimmed from the tail only across a hard break: a gap
// wider than the horizon whose successor record was a valid cleaning
// anchor. The suffix then recomputes identically to the batch suffix (the
// cleaner re-anchors on a record that was genuinely valid, and no density,
// merge, or consolidation rule reaches across a gap that wide), except that
// the tiny-head forward-merge rule must not apply, because the trimmed
// tail's first snippet is not the true sequence head. The session keeps one
// annotation.Incremental for its lifetime and says so with Reset(true) on
// every epoch that follows a trim. One theoretical divergence remains: the
// density smoothing filter is time-blind, so the smoothed class of the
// single record adjacent to a trim point can differ from the batch value.
// Sessions that never see a hard break keep their whole tail (bounded by
// Config.MaxTail), and their output is bit-identical to the batch
// Translator's.
//
// # Complementing
//
// The batch Translator builds mobility knowledge from all devices in a
// second phase; an online engine cannot see the future, so it aggregates
// knowledge incrementally from the triplets it has already emitted (all
// shards feed one shared store) and fills gaps at emission time by the same
// MAP inference, falling back to the uniform topology prior until enough
// transitions accumulate.
package online

import (
	"fmt"
	"runtime"
	"time"

	"trips/internal/annotation"
	"trips/internal/cleaning"
	"trips/internal/complement"
	"trips/internal/dsm"
	"trips/internal/obs/trace"
)

// Pipeline bundles the trained translation components the engine runs.
// Build one from a configured core.Translator (Translator.NewOnline) or by
// hand for tests.
type Pipeline struct {
	Model     *dsm.Model
	Cleaner   *cleaning.Cleaner
	Annotator *annotation.Annotator
	// Complementor enables gap inference; nil disables complementing.
	Complementor *complement.Complementor
	// KnowledgeJoinGap is the admission gap for knowledge aggregation
	// (default 2 minutes, matching the batch Translator).
	KnowledgeJoinGap time.Duration
}

func (p Pipeline) validate() error {
	if p.Model == nil || !p.Model.Frozen() {
		return fmt.Errorf("online: pipeline needs a frozen DSM")
	}
	if p.Cleaner == nil || p.Annotator == nil {
		return fmt.Errorf("online: pipeline needs a cleaner and an annotator")
	}
	return nil
}

// Config parameterizes the engine. The zero value of every field selects a
// sensible default; only Emitter is required. The seal horizon is not a
// setting: it is derived from the annotator's configuration (see the package
// comment), because any shorter horizon emits triplets a later record could
// still change.
type Config struct {
	// Shards is the number of worker goroutines devices are hashed
	// across. Default min(NumCPU, 8).
	Shards int

	// FlushEvery is the number of buffered records per session that
	// triggers an incremental flush whatever their event times. Default
	// 64. Unless FlushInterval is negative, most flushes come from the
	// seal point instead (see the package comment's Sealing section).
	FlushEvery int

	// FlushInterval is the period of the per-shard sweep that flushes
	// pending sessions and applies the idle timeout. Default 500ms. A
	// session also flushes as soon as a record reaches its seal point.
	// Negative turns off both, so the engine starts no flush by itself:
	// flushing then happens only on FlushEvery, Flush, and Close, at
	// points that depend on record counts alone.
	FlushInterval time.Duration

	// IdleTimeout finalizes a session that has received nothing for this
	// long (wall clock): its remaining triplets seal and emit even though
	// the watermark stalled. Default = the seal horizon; negative
	// disables.
	IdleTimeout time.Duration

	// MaxTail force-trims a session tail that exceeds this many records
	// even without a hard break (sacrificing bit-exactness for bounded
	// memory). A session that has sealed nothing — a stationary device
	// dwelling in one region forever — is force-sealed at the horizon
	// instead, so its long dwell emits as consecutive shorter stays;
	// records inside the horizon always stay buffered, making the
	// effective bound max(MaxTail, arrival rate × horizon). Default 8192;
	// negative keeps tails unbounded.
	MaxTail int

	// QueueLen is the per-shard inbox buffer. Default 1024.
	QueueLen int

	// Emitter receives every finalized triplet. Required.
	Emitter Emitter

	// Metrics receives flush-stage latency observations (see Metrics); with
	// both Metrics and Tracer nil, stage timing is disabled entirely,
	// leaving the flush path free of clock reads.
	Metrics *Metrics

	// Tracer records spans for sampled records threaded in through
	// TryIngest: shard enqueue, the flush stages of the
	// flush that seals them, and drop/force-seal events. Untraced records
	// (zero trace context) never touch it. Nil disables tracing.
	Tracer *trace.Tracer

	// fullRecompute drops the sessions' incremental clean+annotate caches
	// before every flush, so each one recomputes the whole tail cold — the
	// reference the differential tests lock the warm path against.
	// Package-internal: it exists to prove equivalence, not to be
	// configured.
	fullRecompute bool
}

func (c *Config) applyDefaults(horizon time.Duration) {
	if c.Shards <= 0 {
		c.Shards = runtime.NumCPU()
		if c.Shards > 8 {
			c.Shards = 8
		}
	}
	if c.FlushEvery <= 0 {
		c.FlushEvery = 64
	}
	if c.FlushInterval == 0 {
		c.FlushInterval = 500 * time.Millisecond
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = horizon
	}
	if c.MaxTail == 0 {
		c.MaxTail = 8192
	}
	if c.QueueLen <= 0 {
		c.QueueLen = 1024
	}
}

// deriveWindows computes the seal horizon and the snippet freeze gap from
// the annotator's split and consolidation configuration; see the package
// comment for the rules. The freeze gap is how far behind the watermark a
// snippet's end must be before no future record can extend its membership
// (MaxGap continuity) or flip a member's density class (EpsTime
// neighborhood, twice for the majority smoothing).
func deriveWindows(cfg annotation.Config) (horizon, freezeGap time.Duration) {
	split := cfg.Split // resolved by NewAnnotator
	h := annotation.TinyJoinGap
	if split.MaxGap > h {
		h = split.MaxGap
	}
	if cfg.MergeGap > h {
		h = cfg.MergeGap
	}
	return 2*split.EpsTime + h + time.Second,
		2*split.EpsTime + split.MaxGap + time.Second
}
