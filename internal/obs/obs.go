// Package obs is the observability core of TRIPS: dependency-free metric
// primitives (atomic counters and fixed-bucket latency histograms with
// quantile snapshots, plus func-backed gauges), a registry that renders them in the Prometheus
// text exposition format, and HTTP plumbing (metrics handler, health
// handlers, an access-log middleware) for trips-server.
//
// # Design
//
// The hot paths this package instruments — the online engine's ingest
// route, per-flush stage timings, warehouse segment writes, analytics
// folds — are allocation-guarded (see online's TestIngestRouteZeroAlloc),
// so every write-side operation (Counter.Add, Histogram.Observe) is a
// handful of atomic instructions and never allocates. Aggregation cost is paid at scrape time instead: rendering
// walks the registered series under a read lock and cumulates histogram
// buckets on the fly.
//
// Every write method is nil-receiver-safe, so instrumented packages hold
// plain metric pointers and skip registration entirely when observability
// is disabled — no interface indirection, no "noop metric" objects, and
// the nil check is the only cost on uninstrumented runs.
//
// Histograms use fixed bucket bounds (the same shape as the analytics
// dwell view): merging is a vector add, rendering is cumulative sums, and
// Quantile interpolates linearly inside the covering bucket, toward the
// observed maximum in the open last bucket.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. The zero value is ready to
// use; all methods are nil-safe no-ops so optional instrumentation needs no
// guards.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
//
//trips:zeroalloc
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (negative deltas are a programming error; Prometheus counters
// only go up, and rendering does not re-check).
//
//trips:zeroalloc
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// DefLatencyBounds is the default histogram layout for operation
// latencies: 50µs to 10s with roughly 1-2-5 spacing, fine enough to
// resolve µs-scale index queries and wide enough for multi-second segment
// writes on a slow disk. The last bucket is open-ended.
var DefLatencyBounds = []time.Duration{
	50 * time.Microsecond, 100 * time.Microsecond, 250 * time.Microsecond,
	500 * time.Microsecond, time.Millisecond, 2500 * time.Microsecond,
	5 * time.Millisecond, 10 * time.Millisecond, 25 * time.Millisecond,
	50 * time.Millisecond, 100 * time.Millisecond, 250 * time.Millisecond,
	500 * time.Millisecond, time.Second, 2500 * time.Millisecond,
	5 * time.Second, 10 * time.Second,
}

// FreshnessBounds is the histogram layout for pipeline-freshness metrics
// (ingest→analytics-visible): sealing waits out the watermark horizon
// (minutes), so the resolution runs 100ms through 30 minutes.
var FreshnessBounds = []time.Duration{
	100 * time.Millisecond, 250 * time.Millisecond, 500 * time.Millisecond,
	time.Second, 2500 * time.Millisecond, 5 * time.Second, 10 * time.Second,
	30 * time.Second, time.Minute, 2 * time.Minute, 5 * time.Minute,
	10 * time.Minute, 30 * time.Minute,
}

// Histogram is a fixed-bucket latency histogram: durations are counted
// into the first bucket whose bound covers them (the implicit last bucket
// is open-ended), with exact sum/count/max kept alongside for means and
// open-bucket quantile interpolation. Observe is lock-free and
// allocation-free; all methods are nil-safe.
type Histogram struct {
	bounds  []time.Duration
	buckets []atomic.Int64 // len(bounds)+1; non-cumulative
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
	max     atomic.Int64 // nanoseconds, CAS-max
}

// newHistogram validates the bounds (ascending, positive) and builds the
// bucket array. Registries call it; there is no unregistered constructor
// because a histogram that is never rendered has no reason to exist.
func newHistogram(bounds []time.Duration) *Histogram {
	if len(bounds) == 0 {
		bounds = DefLatencyBounds
	}
	for i, b := range bounds {
		if b <= 0 || (i > 0 && b <= bounds[i-1]) {
			panic(fmt.Sprintf("obs: histogram bounds must ascend and be positive, got %v", bounds))
		}
	}
	return &Histogram{
		bounds:  bounds,
		buckets: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe counts one duration. Negative observations clamp to zero (clock
// adjustments mid-measurement).
//
//trips:zeroalloc
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	i := 0
	for i < len(h.bounds) && d > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
	for {
		cur := h.max.Load()
		if int64(d) <= cur || h.max.CompareAndSwap(cur, int64(d)) {
			break
		}
	}
}

// ObserveSince observes the elapsed wall time since start.
func (h *Histogram) ObserveSince(start time.Time) {
	if h != nil {
		h.Observe(time.Since(start))
	}
}

// Count returns the number of observations.
//
//trips:api tests in other packages read observation counts through it
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the exact sum of all observations.
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.sum.Load())
}

// Quantile estimates the q-quantile (0 < q < 1) by linear interpolation
// inside the covering bucket; the open last bucket interpolates toward the
// observed maximum. The estimate is taken over a point-in-time bucket
// snapshot, so it is consistent under concurrent Observe calls up to the
// usual histogram quantization error.
//
//trips:api bench/ is a separate module and calls it
func (h *Histogram) Quantile(q float64) time.Duration {
	if h == nil {
		return 0
	}
	counts := make([]int64, len(h.buckets))
	var total int64
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	max := time.Duration(h.max.Load())
	target := q * float64(total)
	var cum float64
	for i, n := range counts {
		if n == 0 {
			continue
		}
		next := cum + float64(n)
		if target <= next {
			lo := time.Duration(0)
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := max
			if i < len(h.bounds) {
				hi = h.bounds[i]
			}
			if hi < lo {
				hi = lo
			}
			frac := (target - cum) / float64(n)
			return lo + time.Duration(frac*float64(hi-lo))
		}
		cum = next
	}
	return max
}

// metricKind discriminates family types for TYPE lines and rendering.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one labeled instance of a family: exactly one of the value
// fields is set. Func-backed series read through their closure at render
// time — the bridge for pre-existing atomic stats (engine counters) that
// should not be double-counted into new metric objects.
type series struct {
	labels string // rendered `k1="v1",k2="v2"` body, "" for unlabeled
	c      *Counter
	h      *Histogram
	cf     func() int64   // counter func
	gf     func() float64 // gauge func
}

// family is every series sharing one metric name (and therefore one HELP
// and TYPE line).
type family struct {
	name   string
	help   string
	kind   metricKind
	series []*series
}

// Registry holds registered metrics and renders them. Registration
// happens at wiring time (it takes a lock and validates names); the
// returned metric objects are then written to without touching the
// registry again. The zero value is not usable; call NewRegistry.
type Registry struct {
	mu       sync.RWMutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// metricNameValid is the Prometheus metric-name grammar.
func metricNameValid(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// renderLabels formats variadic k,v pairs deterministically (sorted by
// key) with Prometheus escaping. Registration-time only.
func renderLabels(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		panic("obs: labels must be key,value pairs")
	}
	type pair struct{ k, v string }
	pairs := make([]pair, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		if !metricNameValid(kv[i]) || strings.Contains(kv[i], ":") {
			panic(fmt.Sprintf("obs: bad label name %q", kv[i]))
		}
		pairs = append(pairs, pair{kv[i], kv[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(p.v))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabelValue(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// register files one series under name, creating or extending its family.
// Mismatched kinds or duplicate label sets under one name are programming
// errors and panic at wiring time.
func (r *Registry) register(name, help string, kind metricKind, s *series) {
	if !metricNameValid(name) {
		panic(fmt.Sprintf("obs: bad metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind}
		r.byName[name] = f
		r.families = append(r.families, f)
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %s re-registered as %s, was %s", name, kind, f.kind))
	}
	for _, prev := range f.series {
		if prev.labels == s.labels {
			panic(fmt.Sprintf("obs: duplicate series %s{%s}", name, s.labels))
		}
	}
	f.series = append(f.series, s)
}

// Counter registers and returns a counter. labels are optional k,v pairs
// rendered on every sample (constant per series; register one counter per
// label combination).
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	c := new(Counter)
	r.register(name, help, kindCounter, &series{labels: renderLabels(labels), c: c})
	return c
}

// CounterFunc registers a counter whose value is read through fn at
// render time — the bridge for counters that already exist as atomic
// fields elsewhere (engine stats) and must not be double-maintained.
func (r *Registry) CounterFunc(name, help string, fn func() int64, labels ...string) {
	r.register(name, help, kindCounter, &series{labels: renderLabels(labels), cf: fn})
}

// GaugeFunc registers a gauge read through fn at render time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	r.register(name, help, kindGauge, &series{labels: renderLabels(labels), gf: fn})
}

// Histogram registers and returns a histogram with the given bucket
// bounds (nil selects DefLatencyBounds).
func (r *Registry) Histogram(name, help string, bounds []time.Duration, labels ...string) *Histogram {
	h := newHistogram(bounds)
	r.register(name, help, kindHistogram, &series{labels: renderLabels(labels), h: h})
	return h
}
