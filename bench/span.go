package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"trips/internal/obs"
	"trips/internal/online"
	"trips/internal/position"
	"trips/internal/tripstore"
)

// span is one timed call from the benchmark into a layer's public function.
// Start and End are nanoseconds since the tracer was made; Count is the
// number of work items (records, trips, bytes) the call covered.
type span struct {
	Name     string `json:"name"`
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 = root
	Start    int64  `json:"start"`
	End      int64  `json:"end"`
	Workload string `json:"workload"`
	Count    int    `json:"count"`
}

// tracer is the in-memory span log of a traced run. Spans are opened only
// here in the benchmark, around calls into the modules; the modules' own
// instrumentation is used only where the benchmark cannot make the call
// itself (the inside of an engine flush, a segment write), through their
// public Metrics on a private registry. A nil *tracer records nothing, so
// the untraced run pays one nil check per span site.
type tracer struct {
	t0       time.Time
	workload string

	mu    sync.Mutex
	spans []span
	stack []int                     // open spans of the driver goroutine
	byDev map[position.DeviceID]int // innermost open emitter span per device

	reg    *obs.Registry
	online *online.Metrics
	store  *tripstore.Metrics
}

func newTracer(workload string) *tracer {
	reg := obs.NewRegistry()
	return &tracer{
		t0:       time.Now(),
		workload: workload,
		byDev:    make(map[position.DeviceID]int),
		reg:      reg,
		online:   online.NewMetrics(reg),
		store:    tripstore.NewMetrics(reg),
	}
}

func (t *tracer) onlineMetrics() *online.Metrics {
	if t == nil {
		return nil
	}
	return t.online
}

func (t *tracer) storeMetrics() *tripstore.Metrics {
	if t == nil {
		return nil
	}
	return t.store
}

// open is a started span; end closes it.
type open struct {
	t  *tracer
	id int
}

// start opens a span on the driver goroutine, nested under the span that
// goroutine opened last.
func (t *tracer) start(name string) open {
	if t == nil {
		return open{}
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := t.add(span{Name: name, Parent: parent, Start: now})
	t.stack = append(t.stack, id)
	t.mu.Unlock()
	return open{t, id}
}

// add appends a span under the lock and returns its id.
func (t *tracer) add(s span) int {
	s.ID = len(t.spans) + 1
	s.Workload = t.workload
	t.spans = append(t.spans, s)
	return s.ID
}

// end closes a driver span covering count work items and returns how long
// it was open.
func (o open) end(count int) time.Duration {
	t := o.t
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	s := &t.spans[o.id-1]
	s.End, s.Count = now, count
	if n := len(t.stack); n > 0 && t.stack[n-1] == o.id {
		t.stack = t.stack[:n-1]
	}
	d := time.Duration(s.End - s.Start)
	t.mu.Unlock()
	return d
}

// timed runs fn under a driver span.
func (t *tracer) timed(name string, count int, fn func()) time.Duration {
	sp := t.start(name)
	fn()
	return sp.end(count)
}

// record files an already measured interval under the driver's innermost
// open span: the sum of many calls too short to log one by one.
func (t *tracer) record(name string, start time.Time, d time.Duration, count int) {
	if t == nil {
		return
	}
	s0 := start.Sub(t.t0).Nanoseconds()
	t.mu.Lock()
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.add(span{Name: name, Parent: parent, Start: s0, End: s0 + d.Nanoseconds(), Count: count})
	t.mu.Unlock()
}

// stage is an emitter the benchmark interposes in the tee chain: it times
// everything downstream of itself for one emission. Emissions of one device
// are serial (one shard goroutine), so the innermost open stage span of
// that device is the parent of the next stage down.
type stage struct {
	t    *tracer
	name string
	root int // parent of the outermost stage: the pass's ingest span
	next online.Emitter
}

// Emit implements online.Emitter.
func (st *stage) Emit(e online.Emission) {
	t := st.t
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	parent, nested := t.byDev[e.Device]
	if !nested {
		parent = st.root
	}
	id := t.add(span{Name: st.name, Parent: parent, Start: now, Count: 1})
	t.byDev[e.Device] = id
	t.mu.Unlock()

	st.next.Emit(e)

	now = time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	if nested {
		t.byDev[e.Device] = parent
	} else {
		delete(t.byDev, e.Device)
	}
	t.mu.Unlock()
}

// FinalizeSession forwards the idle-finalize signal like the tees do.
func (st *stage) FinalizeSession(dev position.DeviceID, at time.Time) {
	if f, ok := st.next.(online.SessionFinalizer); ok {
		f.FinalizeSession(dev, at)
	}
}

// Close forwards the engine's shutdown to the tee below.
func (st *stage) Close() error {
	if c, ok := st.next.(interface{ Close() error }); ok {
		return c.Close()
	}
	return nil
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of it its direct children cover. Children may
// overlap one another (concurrent shards under one ingest span), so cover
// is the length of the union of their intervals clipped to the parent.
func selfTimes(spans []span) map[string]int64 {
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]int64)
	for _, s := range spans {
		out[s.Name] += (s.End - s.Start) - cover(kids[s.ID], s.Start, s.End)
	}
	return out
}

// cover is the total length of the union of the intervals within [lo, hi].
func cover(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	edge := lo
	for _, x := range iv {
		a, b := max(x[0], edge), min(x[1], hi)
		if b > a {
			total += b - a
			edge = b
		}
	}
	return total
}

// totals sums duration and count per span name.
func totals(spans []span) (ns map[string]int64, count map[string]int) {
	ns, count = make(map[string]int64), make(map[string]int)
	for _, s := range spans {
		ns[s.Name] += s.End - s.Start
		count[s.Name] += s.Count
	}
	return ns, count
}

// writeSpans dumps the span log as one JSON array.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
