// Package analytics is the incremental mobility-analytics engine of TRIPS:
// materialized aggregate views over the stream of sealed mobility-semantics
// triplets, maintained as the triplets arrive instead of recomputed by
// rescanning the warehouse.
//
// The warehouse (internal/tripstore) answers point lookups — one device's
// timeline, one region's visits — but every aggregate question (how many
// people are in Nike right now, where do Adidas visitors go next, how long
// do shoppers dwell at the Cashier, which shops were hottest in the last
// quarter hour) would force a full scan. This package keeps those answers
// as first-class state:
//
//   - per-region live occupancy — which region each device is currently in,
//     folded into per-region device counts,
//   - region→region transition (flow) matrices — consecutive region-carrying
//     triplets of one device count one directed transition,
//   - per-region dwell-time histograms with quantile estimation — fixed
//     exponential buckets, so querying is O(buckets),
//   - windowed region popularity — a time-bucketed ring keyed by triplet
//     start time, answering top-k over "the last N minutes/hours" by summing
//     the covered buckets.
//
// # Determinism
//
// Both producers feed the same fold: the online engine's sealed
// emissions (via the Emitter tee) and a warehouse replay (Bootstrap), so a
// cold start over an existing store reaches the same state as live
// ingestion. That equivalence is by construction: every view is a fold that
// depends only on each device's own triplet order (which both producers
// deliver in timeline order) combined across devices by commutative sums.
// The ring prunes buckets strictly by the high-watermark, which has the
// same final value under any interleaving, so pruned state is identical
// too; only the diagnostic counters (late-bucket drops) may differ.
//
// # Concurrency
//
// All view state sits behind one RWMutex on the Engine. A fold write-locks
// it for a handful of map updates; sealing turns some thirty raw records into
// one triplet, and every live fold already runs behind the warehouse's own
// write lock in the tee, so there is no fold parallelism to shard for. Every
// read renders under the read lock straight from the maps — O(view), never
// O(trips) — and Snapshot renders all of them under one acquisition, so a
// dump is one instant of one view generation. Live subscribers attach
// through a Hub (see subscribe.go) that fans per-ingest deltas to buffered
// per-subscriber channels and evicts consumers that stop draining.
package analytics

import (
	"io"
	"maps"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"trips/internal/core"
	"trips/internal/dsm"
	"trips/internal/obs/trace"
	"trips/internal/online"
	"trips/internal/position"
	"trips/internal/semantics"
)

// Config parameterizes the engine. The zero value of every field selects a
// sensible default.
type Config struct {
	// Shards is ignored; kept until bench/ stops setting it.
	Shards int

	// BucketWidth is the time-bucket width of the popularity ring (event
	// time, rounded up to whole seconds). Default 1 minute.
	BucketWidth time.Duration

	// Buckets is the ring length: how many buckets of history the windowed
	// top-k can cover. Older buckets are pruned as the watermark advances.
	// Default 360 (six hours at the default width).
	Buckets int

	// Metrics receives fold-latency and freshness observations; nil
	// disables them. Rebuild keeps it, so histograms accumulate over view
	// generations.
	Metrics *Metrics

	// Tracer records an analytics_fold span for every fold the Emitter tee
	// delivers with a sampled Emission.Trace — the terminal span that
	// completes an end-to-end request trace; nil disables it.
	Tracer *trace.Tracer
}

func (c *Config) applyDefaults() {
	if c.BucketWidth <= 0 {
		c.BucketWidth = time.Minute
	}
	if c.BucketWidth < time.Second {
		c.BucketWidth = time.Second
	}
	c.BucketWidth = c.BucketWidth.Round(time.Second)
	if c.Buckets <= 0 {
		c.Buckets = 360
	}
}

// Engine maintains the materialized views. Create with New, feed it with
// IngestTrip / the Emitter tee / Bootstrap, and read it with the query methods.
// Safe for concurrent use.
type Engine struct {
	cfg Config
	hub *Hub

	// mu guards views.
	mu    sync.RWMutex
	views viewState

	// lastSnapshot is the UnixMilli of the newest durable snapshot written
	// (SaveSnapshot) or loaded (LoadSnapshot); 0 = none. snapshotErrors
	// counts failed periodic saves (see StartAutoSnapshot).
	lastSnapshot   atomic.Int64
	snapshotErrors atomic.Int64

	// rebuild serializes Rebuild calls.
	rebuild sync.Mutex
}

// New returns an engine with empty views. Every view map is pre-sized for a
// working venue — a few dozen regions, a few hundred devices — so the
// steady-state fold never pays an incremental map growth (rehash + bucket
// allocation) mid-ingest.
func New(cfg Config) *Engine {
	cfg.applyDefaults()
	return &Engine{cfg: cfg, hub: newHub(), views: viewState{
		devices:     make(map[position.DeviceID]*deviceState, 256),
		occupancy:   make(map[dsm.RegionID]int, 64),
		visits:      make(map[dsm.RegionID]int64, 64),
		tags:        make(map[dsm.RegionID]string, 64),
		flows:       make(map[flowKey]int64, 256),
		dwell:       make(map[dsm.RegionID]*histogram, 64),
		ring:        make(map[int64]map[dsm.RegionID]int64, 64),
		minRetained: -1 << 62,
	}}
}

// deviceState is the per-device fold: where the device currently is and the
// last region-carrying triplet for flow counting.
type deviceState struct {
	region   dsm.RegionID // current region; "" = in no region
	lastFrom time.Time    // ordering guard
	lastTo   time.Time    // staleness filter input
	// prevRegion is the most recent region-carrying triplet's region — the
	// flow predecessor. Tracked separately from region because region-less
	// triplets must not break a→b transition chains (mirroring the online
	// engine's knowledge aggregation).
	prevRegion dsm.RegionID
}

// viewState is everything a fold writes and a query reads — the part of the
// engine Rebuild replaces wholesale.
type viewState struct {
	devices   map[position.DeviceID]*deviceState
	occupancy map[dsm.RegionID]int   // devices currently in region
	visits    map[dsm.RegionID]int64 // lifetime triplet count per region
	tags      map[dsm.RegionID]string
	flows     map[flowKey]int64
	dwell     map[dsm.RegionID]*histogram
	ring      map[int64]map[dsm.RegionID]int64 // bucket index → region → count
	// minRetained is the ring's retention frontier, the lowest bucket index
	// the window ending at the watermark still covers: every bucket below it
	// has been deleted, and a triplet starting below it is dropped. Before
	// anything folds it sits far below any real bucket.
	minRetained int64
	watermark   time.Time // max triplet To seen

	trips      int64
	inferred   int64
	regionless int64
	outOfOrder int64
	lateBucket int64
	leaves     int64
}

type flowKey struct {
	from, to dsm.RegionID
}

// IngestTrip folds one sealed triplet into the views and publishes a delta
// to matching subscribers. Triplets arrive in per-device timeline order with
// strictly increasing start instants: (device, From) is the identity the
// warehouse keys trips on, and every producer upstream of the views keeps
// it. A trip starting at the device's fold frontier is the trip the views
// already hold and is skipped silently; one starting behind it is a
// backfill the fold cannot place, skipped and counted OutOfOrder.
func (e *Engine) IngestTrip(dev position.DeviceID, t semantics.Triplet) {
	e.fold(dev, t, trace.Ctx{})
}

// fold is the one fold body. A sampled tc (the Emitter tee passes each
// emission's) records it as an analytics_fold span parented under the
// producer's seal span — the terminal span of an end-to-end trace.
func (e *Engine) fold(dev position.DeviceID, t semantics.Triplet, tc trace.Ctx) {
	var start time.Time
	if e.cfg.Metrics != nil {
		//trips:allow wallclock: fold latency metric
		start = time.Now()
		defer func() { e.cfg.Metrics.FoldSeconds.ObserveSince(start) }()
	}
	// Inert unless tc is sampled. Ending this span completes the trace (it
	// is the tracer's terminal span name); later SSE-delivery spans absorb
	// into the completed entry.
	sp := e.cfg.Tracer.Start(tc, "analytics_fold")
	sp.SetDevice(string(dev))
	e.mu.Lock()
	v := &e.views
	d := v.devices[dev]
	if d == nil {
		d = &deviceState{}
		v.devices[dev] = d
	} else if !t.From.After(d.lastFrom) {
		backfill := t.From.Before(d.lastFrom)
		if backfill {
			v.outOfOrder++
		}
		e.mu.Unlock()
		if backfill {
			// A dropped fold means the views are missing this trip: flag the
			// trace so the anomaly is kept and inspectable.
			sp.SetErr()
		}
		sp.End()
		return
	}
	d.lastFrom = t.From
	if t.To.After(d.lastTo) {
		d.lastTo = t.To
	}
	v.trips++
	if t.Inferred {
		v.inferred++
	}
	if t.To.After(v.watermark) {
		v.watermark = t.To
		v.prune(e.bucketIndex(t.To), e.cfg.Buckets)
	}

	prev := d.region
	region := t.RegionID
	if region == "" {
		v.regionless++
	} else if t.Region != "" {
		v.tags[region] = t.Region
	}

	// Occupancy: move the device from its previous region to the new one.
	if prev != region {
		if prev != "" {
			if v.occupancy[prev]--; v.occupancy[prev] <= 0 {
				delete(v.occupancy, prev)
			}
		}
		if region != "" {
			v.occupancy[region]++
		}
		d.region = region
	}

	if region != "" {
		v.visits[region]++
		// Flows: one directed transition per consecutive pair of distinct
		// region-carrying triplets.
		if d.prevRegion != "" && d.prevRegion != region {
			v.flows[flowKey{d.prevRegion, region}]++
		}
		d.prevRegion = region

		// Dwell histogram.
		h := v.dwell[region]
		if h == nil {
			h = new(histogram)
			v.dwell[region] = h
		}
		h.observe(t.Duration())

		// Popularity ring, keyed by the triplet's start bucket. A triplet
		// landing below the retention frontier is dropped (it would be
		// pruned immediately anyway), keeping state deterministic across
		// ingest orders.
		if idx := e.bucketIndex(t.From); idx < v.minRetained {
			v.lateBucket++
		} else {
			v.bucket(idx)[region]++
		}
	}
	occ := v.occupancy[region]
	// The prev fields describe a departure; a device staying put (or a
	// duplicate region) reports none.
	var prevID dsm.RegionID
	prevOcc := 0
	if prev != region {
		prevID = prev
		if prev != "" {
			prevOcc = v.occupancy[prev]
		}
	}
	e.mu.Unlock()

	e.hub.publish(Delta{
		Device:        dev,
		Event:         t.Event,
		Region:        t.Region,
		RegionID:      region,
		PrevRegionID:  prevID,
		From:          t.From,
		To:            t.To,
		Inferred:      t.Inferred,
		Occupancy:     occ,
		PrevOccupancy: prevOcc,
		Trace:         sp.Ctx(),
	})
	sp.End()
}

// bucket returns ring bucket idx, creating it on first use; callers hold
// the write lock.
func (v *viewState) bucket(idx int64) map[dsm.RegionID]int64 {
	b := v.ring[idx]
	if b == nil {
		b = make(map[dsm.RegionID]int64)
		v.ring[idx] = b
	}
	return b
}

// prune advances the ring's retention frontier to the window of ringLen
// buckets ending at the watermark's bucket and drops the buckets below it;
// callers hold the write lock. Buckets below the previous frontier are
// already gone, so only the newly crossed indexes need deleting; a frontier
// jump wider than the ring itself (the first fold, or a watermark leap)
// falls back to one map scan instead of walking the empty index range. The
// jump test must not subtract the old frontier: a restored one can sit near
// math.MinInt64, and the overflow would send the walk across 2^63 indexes.
func (v *viewState) prune(watermarkBucket int64, ringLen int) {
	min := watermarkBucket - int64(ringLen) + 1
	if min <= v.minRetained {
		return
	}
	if v.minRetained < min-int64(ringLen) {
		//trips:commutative prune deletes by predicate; the surviving set is order-independent
		for idx := range v.ring {
			if idx < min {
				delete(v.ring, idx)
			}
		}
	} else {
		for idx := v.minRetained; idx < min; idx++ {
			delete(v.ring, idx)
		}
	}
	v.minRetained = min
}

// bucketIndex floors a time onto the ring's bucket grid.
//
//trips:zeroalloc
func (e *Engine) bucketIndex(t time.Time) int64 {
	ws := int64(e.cfg.BucketWidth / time.Second)
	sec := t.Unix()
	idx := sec / ws
	if sec%ws < 0 { // floor division for pre-epoch times
		idx--
	}
	return idx
}

// IngestResult folds every triplet of a batch translation result,
// implementing core.ResultSink so the batch Translator can feed the views
// directly.
func (e *Engine) IngestResult(r core.Result) error {
	if r.Final == nil {
		return nil
	}
	for _, t := range r.Final.Triplets {
		e.IngestTrip(r.Device, t)
	}
	return nil
}

// EventDeviceLeft labels the Delta published by DeviceLeft: a departure
// signal, not a sealed triplet.
const EventDeviceLeft = semantics.Event("device-left")

// DeviceLeft folds an explicit departure signal into the views: the online
// engine's idle finalizer knows when a device's session died, and this
// drops the device out of its current region so occupancy decays by
// evidence instead of only the query-time activeWithin filter. The signal
// is idempotent — a device already in no region is a no-op — and does not
// advance the device's fold frontier, so sealed-trip folds (including a
// later warehouse replay) behave identically with or without it: the next
// triplet simply moves the device from "nowhere" into its region. at is
// the departure's event time (the To of the device's last sealed triplet).
//
// Departures are ephemeral: they are not warehoused, so a fresh Bootstrap
// cannot reconstruct them. A durable snapshot taken after the signal does
// preserve it.
func (e *Engine) DeviceLeft(dev position.DeviceID, at time.Time) {
	e.mu.Lock()
	prev, prevOcc := e.views.vacate(e.views.devices[dev])
	e.mu.Unlock()
	if prev == "" {
		return
	}

	e.hub.publish(Delta{
		Device:        dev,
		Event:         EventDeviceLeft,
		PrevRegionID:  prev,
		From:          at,
		To:            at,
		PrevOccupancy: prevOcc,
	})
}

// vacate moves a device out of its current region and returns the region it
// left with that region's remaining occupancy; "" when the device is unknown
// (nil) or already nowhere. Callers hold the write lock.
func (v *viewState) vacate(d *deviceState) (prev dsm.RegionID, prevOcc int) {
	if d == nil || d.region == "" {
		return "", 0
	}
	prev = d.region
	d.region = ""
	if v.occupancy[prev]--; v.occupancy[prev] <= 0 {
		delete(v.occupancy, prev)
	}
	v.leaves++
	return prev, v.occupancy[prev]
}

// Emitter returns an online.Emitter that folds every sealed emission into
// the views and forwards it to next (which may be nil). It also implements
// online.SessionFinalizer, translating the engine's idle finalization into
// a DeviceLeft signal (and forwarding it when next is a finalizer too).
// Closing the returned emitter closes next if it is closable; the engine
// itself has no close state.
func (e *Engine) Emitter(next online.Emitter) online.Emitter {
	return &teeEmitter{e: e, next: next}
}

type teeEmitter struct {
	e    *Engine
	next online.Emitter
}

func (t *teeEmitter) Emit(em online.Emission) {
	t.e.fold(em.Device, em.Triplet, em.Trace)
	// The triplet is now visible in the views; the arrival stamp closes the
	// ingest→visible freshness loop. Close/idle flushes emit without one.
	if m := t.e.cfg.Metrics; m != nil && !em.ArrivedAt.IsZero() {
		m.Freshness.ObserveSince(em.ArrivedAt)
	}
	if t.next != nil {
		t.next.Emit(em)
	}
}

func (t *teeEmitter) FinalizeSession(dev position.DeviceID, at time.Time) {
	t.e.DeviceLeft(dev, at)
	if f, ok := t.next.(online.SessionFinalizer); ok {
		f.FinalizeSession(dev, at)
	}
}

func (t *teeEmitter) Close() error {
	if c, ok := t.next.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// Stats are the engine's diagnostic counters.
type Stats struct {
	Trips    int64 `json:"trips"`
	Inferred int64 `json:"inferred"`
	Devices  int   `json:"devices"`
	Regions  int   `json:"regions"`
	Flows    int   `json:"flows"` // distinct directed region pairs
	// Regionless counts triplets without a region annotation (they advance
	// occupancy to "nowhere" but index no region view).
	Regionless int64 `json:"regionless"`
	// OutOfOrder counts triplets dropped because they start before their
	// device's fold frontier: backfills the per-device fold cannot place.
	// A trip starting at the frontier is the one the views already hold
	// and is not counted.
	OutOfOrder int64 `json:"outOfOrder"`
	// RebuildRecommended is set once any fold was dropped OutOfOrder: the
	// views are missing warehoused trips (a backfill landed behind a
	// device's fold frontier) and only a re-bootstrap recovers them —
	// Engine.Rebuild, or POST /analytics/rebuild on trips-server. A rebuild
	// clears it.
	RebuildRecommended bool `json:"rebuildRecommended,omitempty"`
	// LateBuckets counts triplets that arrived below the ring's pruning
	// frontier (their bucket was already expired).
	LateBuckets int64 `json:"lateBuckets"`
	// DeviceLeaves counts explicit departure signals folded (DeviceLeft —
	// the online engine's idle finalizer decaying occupancy by evidence).
	DeviceLeaves int64 `json:"deviceLeaves"`
	// Subscribers / Evicted describe the live-subscription hub.
	Subscribers int   `json:"subscribers"`
	Evicted     int64 `json:"evicted"`
	// Watermark is the latest triplet end time folded into any view.
	Watermark time.Time `json:"watermark,omitzero"`
	// LastSnapshot is when the newest durable view snapshot was written or
	// loaded; SnapshotAgeSeconds is its age at the time of this Stats call
	// (0 when no snapshot exists). SnapshotErrors counts failed periodic
	// saves.
	LastSnapshot       time.Time `json:"lastSnapshot,omitzero"`
	SnapshotAgeSeconds float64   `json:"snapshotAgeSeconds,omitempty"`
	SnapshotErrors     int64     `json:"snapshotErrors,omitempty"`
}

// Stats reads the counters under one read lock.
func (e *Engine) Stats() Stats {
	e.mu.RLock()
	v := &e.views
	st := Stats{
		Trips:        v.trips,
		Inferred:     v.inferred,
		Devices:      len(v.devices),
		Regions:      len(v.visits),
		Flows:        len(v.flows),
		Regionless:   v.regionless,
		OutOfOrder:   v.outOfOrder,
		LateBuckets:  v.lateBucket,
		DeviceLeaves: v.leaves,
		Watermark:    v.watermark,
	}
	e.mu.RUnlock()
	st.Subscribers, st.Evicted = e.hub.stats()
	st.RebuildRecommended = st.OutOfOrder > 0
	if ms := e.lastSnapshot.Load(); ms != 0 {
		st.LastSnapshot = time.UnixMilli(ms).UTC()
		//trips:allow wallclock: snapshot freshness gauge, operational only
		st.SnapshotAgeSeconds = time.Since(st.LastSnapshot).Seconds()
	}
	st.SnapshotErrors = e.snapshotErrors.Load()
	return st
}

// Watermark returns the latest triplet end time folded into any view.
func (e *Engine) Watermark() time.Time {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.views.watermark
}

// RegionOccupancy is one row of the occupancy view.
type RegionOccupancy struct {
	RegionID  dsm.RegionID `json:"regionId"`
	Region    string       `json:"region,omitempty"` // semantic tag
	Occupancy int          `json:"occupancy"`        // devices currently in the region
	Visits    int64        `json:"visits"`           // lifetime triplet count
}

// Occupancy returns the occupancy and visit counters per region, sorted by
// occupancy (then visits, then ID) descending. activeWithin > 0 drops
// devices whose last triplet ended more than that long before the
// watermark — a staleness filter for venues where devices vanish without a
// closing triplet; it walks device states instead of the folded counters,
// so it is O(devices) rather than O(regions).
func (e *Engine) Occupancy(activeWithin time.Duration) []RegionOccupancy {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.views.occupancyRows(activeWithin)
}

func (v *viewState) occupancyRows(activeWithin time.Duration) []RegionOccupancy {
	occ := v.occupancy
	if activeWithin > 0 && !v.watermark.IsZero() {
		cutoff := v.watermark.Add(-activeWithin)
		occ = make(map[dsm.RegionID]int)
		//trips:commutative per-device occupancy increments sum; order-independent
		for _, d := range v.devices {
			if d.region != "" && !d.lastTo.Before(cutoff) {
				occ[d.region]++
			}
		}
	}
	out := make([]RegionOccupancy, 0, len(v.visits))
	//trips:commutative row collection; iteration order is erased by the sort below
	for r, n := range v.visits {
		out = append(out, RegionOccupancy{RegionID: r, Region: v.tags[r], Occupancy: occ[r], Visits: n})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Occupancy != b.Occupancy {
			return a.Occupancy > b.Occupancy
		}
		if a.Visits != b.Visits {
			return a.Visits > b.Visits
		}
		return a.RegionID < b.RegionID
	})
	return out
}

// Flow is one directed region transition with its lifetime count.
type Flow struct {
	From    dsm.RegionID `json:"from"`
	FromTag string       `json:"fromTag,omitempty"`
	To      dsm.RegionID `json:"to"`
	ToTag   string       `json:"toTag,omitempty"`
	Count   int64        `json:"count"`
}

// Flows returns the transition matrix, optionally restricted to
// transitions touching region (either side; "" = all), sorted by count
// descending then (From, To). limit <= 0 returns everything.
func (e *Engine) Flows(region dsm.RegionID, limit int) []Flow {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.views.flowRows(region, limit)
}

func (v *viewState) flowRows(region dsm.RegionID, limit int) []Flow {
	out := make([]Flow, 0, len(v.flows))
	//trips:commutative row collection; iteration order is erased by the sort below
	for k, n := range v.flows {
		if region == "" || k.from == region || k.to == region {
			out = append(out, Flow{From: k.from, FromTag: v.tags[k.from], To: k.to, ToTag: v.tags[k.to], Count: n})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Count != b.Count {
			return a.Count > b.Count
		}
		if a.From != b.From {
			return a.From < b.From
		}
		return a.To < b.To
	})
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

// Dwell derives the region's dwell-time summary statistics. ok is false for
// a region with no folded triplets.
func (e *Engine) Dwell(region dsm.RegionID) (DwellStats, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.views.dwellStats(region)
}

func (v *viewState) dwellStats(region dsm.RegionID) (DwellStats, bool) {
	h := v.dwell[region]
	if h == nil || h.count == 0 {
		return DwellStats{}, false
	}
	return h.stats(region, v.tags[region]), true
}

// RegionCount is one row of the windowed popularity view.
type RegionCount struct {
	RegionID dsm.RegionID `json:"regionId"`
	Region   string       `json:"region,omitempty"`
	Count    int64        `json:"count"` // triplets starting inside the window
}

// TopK sums the popularity ring over the last window of event time (ending
// at the watermark) and returns the k busiest regions. window <= 0 or wider
// than the ring covers the whole retained span; k <= 0 returns every region
// seen in the window. The cost is O(window buckets × regions), independent
// of the number of trips folded.
func (e *Engine) TopK(k int, window time.Duration) []RegionCount {
	e.mu.RLock()
	defer e.mu.RUnlock()
	v := &e.views
	if v.watermark.IsZero() {
		return nil
	}
	span := int64(e.cfg.Buckets)
	if window > 0 {
		if b := int64((window + e.cfg.BucketWidth - 1) / e.cfg.BucketWidth); b < span {
			span = b
		}
	}
	min := e.bucketIndex(v.watermark) - span + 1
	sum := make(map[dsm.RegionID]int64)
	//trips:commutative per-bucket counts sum; order-independent
	for idx, b := range v.ring {
		if idx < min {
			continue
		}
		//trips:commutative per-bucket counts sum; order-independent
		for r, n := range b {
			sum[r] += n
		}
	}
	out := make([]RegionCount, 0, len(sum))
	//trips:commutative row collection; iteration order is erased by the sort below
	for r, n := range sum {
		out = append(out, RegionCount{RegionID: r, Region: v.tags[r], Count: n})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Count != b.Count {
			return a.Count > b.Count
		}
		return a.RegionID < b.RegionID
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// Subscribe attaches a live subscriber to the delta feed; see Hub.Subscribe.
func (e *Engine) Subscribe(regions []dsm.RegionID) *Subscription {
	return e.hub.subscribe(regions)
}

// Snapshot is the canonical full-view dump: every view rendered in a
// deterministic order, for the bootstrap-equivalence property test and for
// debugging. Diagnostic counters that legitimately depend on arrival
// interleaving (late buckets, subscriber stats) are excluded.
type Snapshot struct {
	Watermark time.Time         `json:"watermark,omitzero"`
	Occupancy []RegionOccupancy `json:"occupancy"`
	Flows     []Flow            `json:"flows"`
	Dwell     []DwellStats      `json:"dwell"`
	Ring      []RingBucket      `json:"ring"`
	Trips     int64             `json:"trips"`
	Inferred  int64             `json:"inferred"`
}

// RingBucket is one retained popularity bucket.
type RingBucket struct {
	Start   time.Time     `json:"start"` // bucket start (event time)
	Regions []RegionCount `json:"regions"`
}

// Snapshot renders every view deterministically, all under one read lock:
// the dump is one instant of one view generation, even under live folds or a
// concurrent Rebuild.
//
//trips:api bench/ is a separate module and calls it
func (e *Engine) Snapshot() Snapshot {
	e.mu.RLock()
	defer e.mu.RUnlock()
	v := &e.views
	snap := Snapshot{
		Watermark: v.watermark,
		Occupancy: v.occupancyRows(0),
		Flows:     v.flowRows("", 0),
		Trips:     v.trips,
		Inferred:  v.inferred,
	}
	for _, r := range slices.Sorted(maps.Keys(v.dwell)) {
		if st, ok := v.dwellStats(r); ok {
			snap.Dwell = append(snap.Dwell, st)
		}
	}
	ws := int64(e.cfg.BucketWidth / time.Second)
	for _, idx := range slices.Sorted(maps.Keys(v.ring)) {
		rb, b := RingBucket{Start: time.Unix(idx*ws, 0).UTC()}, v.ring[idx]
		for _, r := range slices.Sorted(maps.Keys(b)) {
			rb.Regions = append(rb.Regions, RegionCount{RegionID: r, Count: b[r]})
		}
		snap.Ring = append(snap.Ring, rb)
	}
	return snap
}

var _ core.ResultSink = (*Engine)(nil)
