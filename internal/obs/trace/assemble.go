package trace

import (
	"context"
	"sort"
	"time"
)

// pendingTrace accumulates the spans of a trace that has not yet
// finalized.
type pendingTrace struct {
	spans []Span
	// last is when the most recent span was recorded — the linger clock.
	last time.Time
}

// Trace is a completed trace in the ring.
type Trace struct {
	ID     TraceID
	Device string
	Start  time.Time
	End    time.Time
	// Err is set when any span errored; Forced when the trace was pinned
	// by the caller or an explicit keep; Complete when the terminal span
	// was observed (as opposed to a linger-window finalize).
	Err      bool
	Forced   bool
	Complete bool
	// Pinned traces survive ring eviction until only pinned traces remain.
	Pinned bool
	Spans  []Span
}

// Duration is the wall-clock extent from first span start to last span end.
func (tr *Trace) Duration() time.Duration { return tr.End.Sub(tr.Start) }

// snapshot returns a copy whose span slice is detached from the ring, so
// callers can read it outside the tracer's lock.
func (tr *Trace) snapshot() Trace {
	out := *tr
	out.Spans = append([]Span(nil), tr.Spans...)
	return out
}

// addSpanLocked routes one finished span: into the matching completed trace
// if its trace already finalized (late spans — the seal and ingest spans
// end after the fold that completed the trace, SSE delivery later still),
// otherwise into the pending set, which the terminal span completes on the
// spot.
func (t *Tracer) addSpanLocked(s Span, now time.Time) {
	if tr, ok := t.index[s.Trace]; ok {
		tr.Spans = append(tr.Spans, s)
		sortSpans(tr.Spans)
		tr.absorb(s)
		if tr.Duration() >= t.cfg.KeepOver {
			tr.Pinned = true
		}
		return
	}
	p := t.pending[s.Trace]
	if p == nil {
		p = &pendingTrace{}
		t.pending[s.Trace] = p
	}
	p.spans = append(p.spans, s)
	p.last = now
	if s.Name == terminalSpan {
		t.completeLocked(s.Trace, p, true)
	}
}

// absorb folds one span's attributes into the trace-level summary.
func (tr *Trace) absorb(s Span) {
	if tr.Device == "" {
		tr.Device = s.Device
	}
	if s.Err {
		tr.Err = true
		tr.Pinned = true
	}
	if s.Keep {
		tr.Forced = true
		tr.Pinned = true
	}
	if tr.Start.IsZero() || s.Start.Before(tr.Start) {
		tr.Start = s.Start
	}
	if s.End.After(tr.End) {
		tr.End = s.End
	}
}

// finalizeLocked is the linger sweep: pending traces quiet past the linger
// window enter the completed ring as they are (Complete false).
func (t *Tracer) finalizeLocked(now time.Time) {
	t.swept = now
	for id, p := range t.pending {
		if now.Sub(p.last) >= t.cfg.Linger {
			t.completeLocked(id, p, false)
		}
	}
}

// completeLocked moves a pending trace into the completed ring; terminal
// says whether its terminal span arrived.
func (t *Tracer) completeLocked(id TraceID, p *pendingTrace, terminal bool) {
	delete(t.pending, id)
	sortSpans(p.spans)
	tr := &Trace{ID: id, Complete: terminal, Spans: p.spans}
	for _, s := range p.spans {
		tr.absorb(s)
	}
	if tr.Duration() >= t.cfg.KeepOver {
		tr.Pinned = true
	}
	t.insertLocked(tr)
}

// insertLocked appends to the ring, evicting the oldest unpinned trace when
// full — or the oldest outright when everything is pinned.
func (t *Tracer) insertLocked(tr *Trace) {
	t.kept++
	if len(t.ring) >= t.cfg.RingSize {
		victim := -1
		for i, old := range t.ring {
			if !old.Pinned {
				victim = i
				break
			}
		}
		if victim < 0 {
			victim = 0
		}
		delete(t.index, t.ring[victim].ID)
		t.ring = append(t.ring[:victim], t.ring[victim+1:]...)
		t.evicted++
	}
	t.ring = append(t.ring, tr)
	t.index[tr.ID] = tr
}

func sortSpans(spans []Span) {
	sort.SliceStable(spans, func(i, j int) bool {
		return spans[i].Start.Before(spans[j].Start)
	})
}

// Filter selects traces from the completed ring.
type Filter struct {
	// MinDuration keeps only traces at least this slow end to end.
	MinDuration time.Duration
	// Device keeps only traces attributed to this device.
	Device string
	// Err keeps only traces with an errored span.
	Err bool
	// Limit caps the result count; 0 means 50.
	Limit int
}

// Traces returns completed traces matching f, newest first.
func (t *Tracer) Traces(f Filter) []Trace {
	if t == nil {
		return nil
	}
	limit := f.Limit
	if limit <= 0 {
		limit = 50
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.finalizeLocked(time.Now())
	out := make([]Trace, 0, min(limit, len(t.ring)))
	for i := len(t.ring) - 1; i >= 0 && len(out) < limit; i-- {
		tr := t.ring[i]
		if f.Device != "" && tr.Device != f.Device {
			continue
		}
		if f.Err && !tr.Err {
			continue
		}
		if f.MinDuration > 0 && tr.Duration() < f.MinDuration {
			continue
		}
		out = append(out, tr.snapshot())
	}
	return out
}

// Get returns the trace by ID — completed if finalized, else an
// in-flight snapshot of its pending spans (Complete false).
func (t *Tracer) Get(id TraceID) (Trace, bool) {
	if t == nil {
		return Trace{}, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.finalizeLocked(time.Now())
	if tr, ok := t.index[id]; ok {
		return tr.snapshot(), true
	}
	if p, ok := t.pending[id]; ok {
		sortSpans(p.spans)
		tr := Trace{ID: id, Spans: append([]Span(nil), p.spans...)}
		for _, s := range tr.Spans {
			tr.absorb(s)
		}
		return tr, true
	}
	return Trace{}, false
}

// Stats is a point-in-time summary of tracer activity, cheap enough to
// bridge into /metrics on every scrape (it does not run the linger sweep).
type Stats struct {
	Sampled int64 `json:"sampled"`
	Kept    int64 `json:"kept"`
	Evicted int64 `json:"evicted"`
	Ring    int   `json:"ring"`
	Pending int   `json:"pending"`
}

// Stats reports cumulative counters and current ring/pending sizes.
func (t *Tracer) Stats() Stats {
	if t == nil {
		return Stats{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return Stats{
		Sampled: t.sampled.Load(),
		Kept:    t.kept,
		Evicted: t.evicted,
		Ring:    len(t.ring),
		Pending: len(t.pending),
	}
}

// SpanView is the JSON rendering of one span.
type SpanView struct {
	ID     string `json:"id"`
	Parent string `json:"parent,omitempty"`
	Name   string `json:"name"`
	Device string `json:"device,omitempty"`
	// Shard is -1 when the span is not attributed to a worker shard.
	Shard      int       `json:"shard"`
	Err        bool      `json:"err,omitempty"`
	Start      time.Time `json:"start"`
	DurationMs float64   `json:"duration_ms"`
}

// TraceView is the JSON rendering of a trace: the span tree plus a
// per-stage duration rollup (Stages sums spans by name, in milliseconds)
// that CI assertions and the load harness consume without walking spans.
type TraceView struct {
	ID         string             `json:"id"`
	Device     string             `json:"device,omitempty"`
	Start      time.Time          `json:"start"`
	DurationMs float64            `json:"duration_ms"`
	Err        bool               `json:"err,omitempty"`
	Pinned     bool               `json:"pinned,omitempty"`
	Complete   bool               `json:"complete"`
	Stages     map[string]float64 `json:"stages_ms,omitempty"`
	Spans      []SpanView         `json:"spans,omitempty"`
}

// View renders the trace for JSON serving.
func (tr Trace) View() TraceView {
	v := TraceView{
		ID:         tr.ID.String(),
		Device:     tr.Device,
		Start:      tr.Start,
		DurationMs: ms(tr.Duration()),
		Err:        tr.Err,
		Pinned:     tr.Pinned,
		Complete:   tr.Complete,
	}
	if len(tr.Spans) > 0 {
		v.Stages = make(map[string]float64, 8)
		v.Spans = make([]SpanView, len(tr.Spans))
		for i, s := range tr.Spans {
			sv := SpanView{
				ID:         s.ID.String(),
				Name:       s.Name,
				Device:     s.Device,
				Shard:      s.Shard,
				Err:        s.Err,
				Start:      s.Start,
				DurationMs: ms(s.Duration()),
			}
			if !s.Parent.IsZero() {
				sv.Parent = s.Parent.String()
			}
			v.Spans[i] = sv
			v.Stages[s.Name] += sv.DurationMs
		}
	}
	return v
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

type ctxKey struct{}

// NewContext attaches a trace context to a request context.
func NewContext(parent context.Context, c Ctx) context.Context {
	return context.WithValue(parent, ctxKey{}, c)
}

// FromContext extracts the trace context, zero if absent.
func FromContext(ctx context.Context) Ctx {
	c, _ := ctx.Value(ctxKey{}).(Ctx)
	return c
}
