package online

import (
	"sort"
	"time"

	"trips/internal/annotation"
	"trips/internal/cleaning"
	"trips/internal/obs/trace"
	"trips/internal/position"
	"trips/internal/semantics"
)

// session is the per-device state machine: the raw record tail still under
// translation, the emission frontier into that tail, and the last emitted
// triplet for gap complementing.
type session struct {
	dev  position.DeviceID
	tail *position.Sequence

	// base counts the records trimmed or finalized away before tail[0];
	// emitted triplet indexes are offset by it so they keep matching the
	// batch Translator's.
	base int

	// emittedInTail is how many leading triplets of the tail's current
	// annotation have already been emitted.
	emittedInTail int

	// seq is the per-device emission counter.
	seq int

	// last is the most recently emitted triplet (for gap complementing);
	// valid when hasLast.
	last    semantics.Triplet
	hasLast bool

	// lastKnow is the most recently emitted region-carrying triplet —
	// the knowledge-aggregation predecessor. Tracked separately from
	// last because BuildKnowledge skips region-less triplets without
	// resetting its predecessor, and the online aggregation must count
	// the same transitions.
	lastKnow    semantics.Triplet
	hasLastKnow bool

	// sealedThrough is the To of the last sealed triplet: the point of no
	// return. Records at or before sealedThrough+horizon are late.
	sealedThrough time.Time

	// frozenThrough is the To of the latest unsealed triplet whose frozen
	// membership a seal decision relied on; records at or before
	// frozenThrough+freezeGap are late (they could re-open that
	// membership).
	frozenThrough time.Time

	// pending counts records ingested since the last flush.
	pending int

	// sealAt is the earliest tail end at which the next flush can seal
	// anything: an admitted record at or past it flushes the session at
	// once. Zero while the seal is blocked (trailing invalid run, freeze)
	// or the tail is empty. A hint, never a gate: the sweep, FlushEvery,
	// Flush and Close still flush whatever it misses.
	sealAt time.Time

	// lastArrival is the wall-clock time of the last ingested record,
	// for the idle timeout.
	lastArrival time.Time

	// firstPending is the wall-clock arrival of the oldest record ingested
	// since the last flush; zero while nothing is pending. It feeds the
	// freshness metric without per-record bookkeeping: one IsZero check per
	// ingest, reusing the clock read lastArrival already pays for.
	firstPending time.Time

	// emitArrival stamps Emission.ArrivedAt for every triplet emitted by
	// the current flush: the firstPending value swapped in when the flush
	// started. Downstream sinks turn it into ingest→visible latency.
	emitArrival time.Time

	// trace is the sampled trace context adopted by this session (the first
	// traced request whose record was admitted while no trace was active).
	// The flush that seals commits the trace's stage spans and clears it;
	// non-sealing flushes keep it so the spans land on the flush that
	// actually finalized the request's data. Zero when untraced.
	trace trace.Ctx

	// doneTrace is the last trace this session committed. The rest of that
	// request's records must not adopt it again: the trace already holds
	// its stage spans, and a second set would double its rollups.
	doneTrace trace.TraceID

	// dropSpan remembers the root span of the last traced request that had
	// a record dropped, deduplicating drop spans per request.
	dropSpan trace.SpanID

	// emitTC is the trace context emissions carry during a flush (the seal
	// span's context, so downstream warehouse/analytics spans nest under
	// it); zero outside a traced flush.
	emitTC trace.Ctx

	// lastFlush* hold the stage breakdown of the most recent instrumented
	// flush, served by Engine.Snapshot. Populated only when stage timing ran
	// (engine Metrics configured or the session traced).
	lastFlushAt  time.Time
	lastClean    time.Duration
	lastAnnotate time.Duration
	lastSeal     time.Duration
	lastSealed   int

	// clean and ann are the incremental recompute caches: the cleaning
	// layer's stable-prefix state and the annotator's staged caches. They
	// make flush cost proportional to the tail's unstable suffix instead
	// of the whole tail, and they reset whenever the tail epoch changes
	// (trim, force-seal, seal-all) — the trimmed suffix recomputes from
	// scratch once and caches from there. Their scratch is the shard's.
	clean cleaning.State
	ann   *annotation.Incremental
}

func newSession(e *Engine, sh *shard, dev position.DeviceID) *session {
	ss := &session{dev: dev, tail: position.NewSequence(dev), ann: e.pl.Annotator.NewIncremental()}
	// The online path never reads Report.Changes — it queries per-index
	// repairs through State.Repaired — so suppress the merged change-list
	// assembly, which costs O(total repairs) per flush.
	ss.clean.NoChanges = true
	ss.clean.Work = &sh.clean
	ss.ann.Work = &sh.ann
	return ss
}

// admit is the outcome of a session ingest attempt.
type admit uint8

const (
	admitOK admit = iota
	admitLate
	admitDuplicate
)

// ingest buffers one record, dropping it as late when it cannot be
// admitted without touching sealed output. The drop predicate IS the
// admission floor: admitting anything the floor rejects would let an
// out-of-order record land inside the cleaning cache's stable prefix.
func (ss *session) ingest(e *Engine, r position.Record) admit {
	// A record timestamped at or before the current tail end is either a
	// bounded out-of-order arrival or a redelivery. Redeliveries collapse
	// to exactly-once here: a duplicated record would double-count as a
	// density neighbor and change sealed output, so at-least-once upstream
	// delivery (reconnect storms, retried ingest batches) must not reach
	// the translation layers. The device model is one position per instant,
	// so timestamp equality is the identity. The search runs before the
	// floor test: a redelivery whose original still sits in the tail is a
	// duplicate even once a seal has passed it. In-order feeds never take
	// the search: strictly increasing timestamps skip it entirely.
	n := ss.tail.Len()
	if n > 0 && !r.At.After(ss.tail.Records[n-1].At) {
		i := sort.Search(n, func(i int) bool { return !ss.tail.Records[i].At.Before(r.At) })
		if i < n && ss.tail.Records[i].At.Equal(r.At) {
			return admitDuplicate
		}
	}
	if floor := ss.admissionFloor(e); !floor.IsZero() && !r.At.After(floor) {
		return admitLate
	}
	if n == 0 {
		// Nothing in the tail can seal before this record is a horizon old.
		ss.sealAt = r.At.Add(e.horizon)
	}
	ss.tail.Append(r)
	ss.pending++
	ss.lastArrival = e.now()
	if ss.firstPending.IsZero() {
		ss.firstPending = ss.lastArrival
	}
	return admitOK
}

// admissionFloor is the earliest instant a future record of this session
// can carry: ingest drops anything at or before both lateness frontiers, so
// records at or before the floor can never be displaced by an out-of-order
// arrival — the insert-safety guarantee the incremental cleaning cache
// keys on. Zero while nothing has sealed or frozen.
func (ss *session) admissionFloor(e *Engine) time.Time {
	var floor time.Time
	if !ss.sealedThrough.IsZero() {
		floor = ss.sealedThrough.Add(e.horizon)
	}
	if !ss.frozenThrough.IsZero() {
		if f := ss.frozenThrough.Add(e.freezeGap); f.After(floor) {
			floor = f
		}
	}
	return floor
}

// stageStamps captures the clock reads bracketing the clean and annotate
// stages of one flush; the flush turns them into histogram observations,
// trace spans, and the snapshot's last-flush breakdown. A nil *stageStamps
// (provisional snapshot queries, instrumentation fully disabled) keeps the
// path free of clock reads.
type stageStamps struct {
	start, afterClean, afterAnnotate time.Time
}

// translateTail runs clean+annotate over the tail incrementally through the
// session's caches: re-cleaning from the last stable anchor and
// re-annotating the unstable suffix window. A non-nil st stamps the stage
// boundaries; flushes pass one when metrics or tracing consume the timings,
// provisional snapshot queries pass nil so the flush-stage instruments stay
// clean.
func (ss *session) translateTail(e *Engine, st *stageStamps) *semantics.Sequence {
	if e.cfg.fullRecompute {
		ss.resetTranslation() // the differential tests' cold reference
	}
	if st != nil {
		//trips:allow wallclock: stage latency stamp, operational telemetry
		st.start = time.Now()
	}
	cleaned, _ := e.pl.Cleaner.CleanFrom(&ss.clean, ss.tail, ss.admissionFloor(e))
	if st != nil {
		//trips:allow wallclock: stage latency stamp, operational telemetry
		st.afterClean = time.Now()
	}
	sem := ss.ann.Annotate(cleaned, ss.clean.StableSince())
	if st != nil {
		//trips:allow wallclock: stage latency stamp, operational telemetry
		st.afterAnnotate = time.Now()
	}
	return sem
}

// resetTranslation invalidates the incremental caches; the next flush
// recomputes the (new) tail from scratch. Called on every tail epoch
// change, because the caches are keyed by record index into the tail.
func (ss *session) resetTranslation() {
	ss.clean.Reset()
	// Reset makes the next Annotate a full recompute over the new record
	// indexes. A tail that follows trimmed records (base > 0) is a suffix
	// whose first snippet is not the device's true sequence head.
	ss.ann.Reset(ss.base > 0)
}

// restartTail begins a new tail epoch: consumed records leave the tail
// (they fold into base so emitted indexes keep matching the batch
// Translator's), rest becomes the new tail (nil for an empty one), and the
// index-keyed incremental caches invalidate. Tail replacement and cache
// reset must never separate — a stale stable prefix applied to a different
// record array would silently corrupt output.
func (ss *session) restartTail(rest []position.Record, consumed int) {
	ss.base += consumed
	if rest == nil {
		ss.tail = position.NewSequence(ss.dev)
	} else {
		ss.tail = &position.Sequence{Device: ss.dev, Records: rest}
	}
	ss.emittedInTail = 0
	ss.resetTranslation()
}

// flush recomputes clean+annotate over the tail and emits every newly
// sealed triplet. With sealAll (close or idle finalize) everything seals
// and the tail resets; otherwise sealed records may trim across a hard
// break.
func (ss *session) flush(e *Engine, sealAll bool) {
	ss.pending = 0
	ss.emitArrival = ss.firstPending
	ss.firstPending = time.Time{}
	if ss.tail.Len() == 0 {
		return
	}
	e.stats.Flushes.Add(1)

	m := e.cfg.Metrics
	traced := e.cfg.Tracer != nil && ss.trace.Sampled()
	var stamps stageStamps
	var st *stageStamps
	if m != nil || traced {
		st = &stamps
	}
	sem := ss.translateTail(e, st)
	if ss.clean.StableSince() > 0 {
		// This flush re-cleaned only from the stable anchor forward. The
		// counter lives here rather than in translateTail so provisional
		// snapshot queries don't inflate the flush cache-hit rate.
		e.stats.IncrementalFlushes.Add(1)
	}
	var sealSp trace.SpanRec
	if traced {
		// The seal span opens before emission so warehouse/analytics spans
		// can nest under it via the Emission's trace context. If this flush
		// ends up sealing nothing the span is discarded unended (inert) and
		// the session keeps its trace for the flush that does seal.
		sealSp = e.cfg.Tracer.Start(ss.trace, "seal")
		sealSp.SetDevice(string(ss.dev))
		ss.emitTC = sealSp.Ctx()
	}
	seq0, base0 := ss.seq, ss.base
	watermark := ss.tail.End()

	// Trailing invalid run: cleaned values there still depend on a future
	// anchor, so triplets touching it cannot seal.
	unstable := ss.tail.Len()
	for unstable > 0 && ss.clean.Repaired(unstable-1) {
		unstable--
	}

	sealBefore := watermark.Add(-e.horizon)
	frozenBefore := watermark.Add(-e.freezeGap)
	mergeGap := e.pl.Annotator.Cfg.MergeGap

	n := 0
	for i := ss.emittedInTail; i < len(sem.Triplets); i++ {
		t := sem.Triplets[i]
		if !sealAll {
			if t.To.After(sealBefore) || t.LastIdx >= unstable {
				break
			}
			// A successor within consolidation reach must have frozen
			// membership (tag, region, density all final) before t's
			// extent is final.
			if i+1 < len(sem.Triplets) && mergeGap > 0 {
				next := sem.Triplets[i+1]
				if next.From.Sub(t.To) <= mergeGap {
					if next.To.After(frozenBefore) || next.LastIdx >= unstable {
						break
					}
					if next.To.After(ss.frozenThrough) {
						ss.frozenThrough = next.To
					}
				}
			}
		}
		ss.emit(e, t, watermark)
		n++
	}
	ss.emittedInTail += n

	if sealAll {
		ss.restartTail(nil, ss.tail.Len())
		ss.sealAt = time.Time{}
	} else {
		ss.maybeTrim(e, sem)
		ss.sealAt = ss.nextSealAt(e, sem, ss.base != base0, watermark)
	}
	// Count after trimming so force-seal emissions show in the breakdown.
	sealed := ss.seq - seq0
	if sealed > 0 {
		e.stats.SealingFlushes.Add(1)
	}

	if st != nil {
		//trips:allow wallclock: stage latency stamp, operational telemetry
		sealEnd := time.Now()
		dClean := stamps.afterClean.Sub(stamps.start)
		dAnnotate := stamps.afterAnnotate.Sub(stamps.afterClean)
		dSeal := sealEnd.Sub(stamps.afterAnnotate)
		if m != nil {
			m.CleanSeconds.Observe(dClean)
			m.AnnotateSeconds.Observe(dAnnotate)
			m.SealSeconds.Observe(dSeal)
		}
		// Once a flush has sealed, the breakdown keeps the latest one
		// that did: with eager seals the flush after a seal is usually
		// an empty one, and the seal is what an operator asks about.
		if sealed > 0 || ss.lastSealed == 0 {
			ss.lastFlushAt = sealEnd
			ss.lastClean = dClean
			ss.lastAnnotate = dAnnotate
			ss.lastSeal = dSeal
			ss.lastSealed = sealed
		}
	}

	if traced {
		if sealed > 0 || sealAll {
			// This flush finalized the traced request's data: commit the
			// stage spans, close the seal span, and release the session's
			// trace so the next sampled request can adopt it.
			cl := e.cfg.Tracer.Start(ss.trace, "clean")
			cl.SetDevice(string(ss.dev))
			cl.SetStart(stamps.start)
			cl.EndAt(stamps.afterClean)
			an := e.cfg.Tracer.Start(ss.trace, "annotate")
			an.SetDevice(string(ss.dev))
			an.SetStart(stamps.afterClean)
			an.EndAt(stamps.afterAnnotate)
			sealSp.End()
			ss.doneTrace = ss.trace.Trace
			ss.trace = trace.Ctx{}
		}
		// else: sealSp is dropped unended (never recorded) and ss.trace
		// survives for the sealing flush.
	}
	ss.emitTC = trace.Ctx{}
}

// nextSealAt is the session's sealAt after a non-final flush: the tail
// end at which the seal rules above first pass the oldest unsealed
// triplet t, given the annotation sem the flush just read. That is
// t.To+horizon, or the later successor freeze when a MergeGap neighbour
// must freeze first. After a trim or force-seal sem no longer indexes the
// tail, so the new tail's first record stands in for t. A value at or
// behind the watermark means the seal waits on something else (the
// trailing invalid run, a freeze the flush just failed), and re-flushing
// on every record would not release it: that returns zero, leaving the
// session to the sweep and FlushEvery.
func (ss *session) nextSealAt(e *Engine, sem *semantics.Sequence, epoch bool, watermark time.Time) time.Time {
	if ss.tail.Len() == 0 {
		return time.Time{}
	}
	var at time.Time
	switch {
	case epoch:
		at = ss.tail.Records[0].At.Add(e.horizon)
	case ss.emittedInTail < len(sem.Triplets):
		i := ss.emittedInTail
		t := sem.Triplets[i]
		at = t.To.Add(e.horizon)
		if mergeGap := e.pl.Annotator.Cfg.MergeGap; i+1 < len(sem.Triplets) && mergeGap > 0 {
			if next := sem.Triplets[i+1]; next.From.Sub(t.To) <= mergeGap {
				if f := next.To.Add(e.freezeGap); f.After(at) {
					at = f
				}
			}
		}
	default:
		return time.Time{} // no open triplet to point at
	}
	if !at.After(watermark) {
		return time.Time{}
	}
	return at
}

// emit finalizes one triplet: complement the gap from the previously
// emitted triplet, feed the shared knowledge, and hand both the inferred
// and the observed triplets to the sink.
func (ss *session) emit(e *Engine, t semantics.Triplet, watermark time.Time) {
	t.FirstIdx += ss.base
	t.LastIdx += ss.base
	if ss.hasLast && e.pl.Complementor != nil {
		for _, inf := range e.know.inferGap(e.pl.Complementor, ss.last, t) {
			e.send(Emission{Device: ss.dev, Seq: ss.seq, Triplet: inf, Watermark: watermark, ArrivedAt: ss.emitArrival, Trace: ss.emitTC})
			ss.seq++
			e.stats.Inferred.Add(1)
		}
	}
	if t.RegionID != "" {
		if ss.hasLastKnow {
			e.know.observe(ss.lastKnow, t)
		}
		ss.lastKnow, ss.hasLastKnow = t, true
	}
	e.send(Emission{Device: ss.dev, Seq: ss.seq, Triplet: t, Watermark: watermark, ArrivedAt: ss.emitArrival, Trace: ss.emitTC})
	ss.seq++
	ss.last, ss.hasLast = t, true
	if t.To.After(ss.sealedThrough) {
		ss.sealedThrough = t.To
	}
}

// maybeTrim drops fully sealed records from the tail. An exact trim
// requires a hard break — a gap wider than the horizon whose successor was
// a valid cleaning anchor — after which the suffix recomputes identically.
// A tail beyond MaxTail is force-trimmed at the seal boundary regardless,
// and when there is no seal boundary at all it is force-sealed at the
// horizon.
func (ss *session) maybeTrim(e *Engine, sem *semantics.Sequence) {
	if ss.emittedInTail == 0 {
		// No triplet has sealed from this tail, so there is no trim
		// boundary — the case of a stationary device dwelling in one
		// region forever: its single growing stay never falls behind the
		// watermark, so without intervention memory and per-flush
		// recompute grow without bound exactly when MaxTail is supposed
		// to bite. Force-seal at the horizon instead.
		if e.cfg.MaxTail > 0 && ss.tail.Len() > e.cfg.MaxTail {
			ss.forceSeal(e, sem)
		}
		return
	}
	// sem indexes are tail-relative (emit adjusts copies, not sem).
	b := sem.Triplets[ss.emittedInTail-1].LastIdx + 1 // first unsealed record
	if b <= 0 || b > ss.tail.Len() {
		return
	}
	if b == ss.tail.Len() {
		// Everything in the tail is sealed; the next admitted record is
		// beyond the horizon by the lateness rule, so this is a break.
		ss.restartTail(nil, ss.tail.Len())
		e.stats.Trims.Add(1)
		return
	}
	gap := ss.tail.Records[b].At.Sub(ss.tail.Records[b-1].At)
	hard := gap > e.horizon && !ss.clean.Repaired(b)
	forced := e.cfg.MaxTail > 0 && ss.tail.Len() > e.cfg.MaxTail
	if !hard && !forced {
		return
	}
	if hard {
		e.stats.Trims.Add(1)
	} else {
		e.stats.ForcedTrims.Add(1)
	}
	// Slide the surviving suffix to the front of the same backing array:
	// the record values are identical and every index-keyed cache resets
	// with the epoch, so no fresh allocation is needed.
	rest := ss.tail.Records[:copy(ss.tail.Records, ss.tail.Records[b:])]
	ss.restartTail(rest, b)
}

// forceSeal bounds a tail that cannot seal naturally: it emits the
// triplets covering the records older than watermark−horizon — truncating
// the straddling triplet at that boundary — then trims those records and
// restarts the tail epoch. Cutting at the horizon rather than at the
// covering triplet's end keeps the session alive: emit advances
// sealedThrough, and ingest drops records at or before
// sealedThrough+horizon, so sealing up to the watermark would turn the
// device's entire ongoing feed late. The cost is exactness, as documented
// on Config.MaxTail: one long dwell emits as consecutive shorter stays,
// and repairs or merges that would have reached across the cut are lost.
// Because everything within the horizon must stay buffered, the effective
// tail bound is max(MaxTail, arrival rate × horizon) records.
func (ss *session) forceSeal(e *Engine, sem *semantics.Sequence) {
	watermark := ss.tail.End()
	sealBefore := watermark.Add(-e.horizon)
	// First record younger than the horizon; everything before it seals.
	cut := sort.Search(ss.tail.Len(), func(i int) bool {
		return ss.tail.Records[i].At.After(sealBefore)
	})
	if cut == 0 {
		return // the whole overflow is within the horizon; nothing to free
	}
	for _, t := range sem.Triplets {
		if t.FirstIdx >= cut {
			break
		}
		if t.LastIdx >= cut {
			// The straddling triplet: emit the prefix ending at the cut.
			// The continuation re-annotates from the trimmed tail and
			// emits later as its own triplet.
			t.LastIdx = cut - 1
			t.To = ss.tail.Records[cut-1].At
			ss.emit(e, t, watermark)
			break
		}
		ss.emit(e, t, watermark)
	}
	rest := ss.tail.Records[:copy(ss.tail.Records, ss.tail.Records[cut:])]
	ss.restartTail(rest, cut)
	e.stats.ForcedSeals.Add(1)
	if e.cfg.Tracer != nil && ss.emitTC.Sampled() {
		// A forced seal truncated the traced request's dwell: mark the trace
		// kept so the exactness loss is inspectable after the fact.
		sp := e.cfg.Tracer.Start(ss.emitTC, "force_seal")
		sp.SetDevice(string(ss.dev))
		sp.SetKeep()
		sp.End()
	}
}

// provisional recomputes the tail and returns the not-yet-sealed triplets,
// index-adjusted — the live view of a device between seals.
func (ss *session) provisional(e *Engine) []semantics.Triplet {
	if ss.tail.Len() == 0 {
		return nil
	}
	sem := ss.translateTail(e, nil)
	if ss.emittedInTail >= len(sem.Triplets) {
		return nil
	}
	out := make([]semantics.Triplet, 0, len(sem.Triplets)-ss.emittedInTail)
	for _, t := range sem.Triplets[ss.emittedInTail:] {
		t.FirstIdx += ss.base
		t.LastIdx += ss.base
		out = append(out, t)
	}
	return out
}
