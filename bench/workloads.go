package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"time"

	"trips/internal/core"
	"trips/internal/online"
	"trips/internal/position"
	"trips/internal/tripstore"
)

// config is what the command line fixes for a run.
type config struct {
	seed    int64
	scale   float64 // shrinks every size; 1 is the measured configuration
	seconds float64 // run length asked for; it only ever adds repetitions (reps)
	par     int     // P = min(nproc, 4): engine shards, view shards, batch workers
	tmp     string  // where store directories are made
}

// refSeconds is the run length the repetition counts of the workloads are
// sized for: BENCHMARK.json's run_seconds.
const refSeconds = 15

// reps is how many times a phase is repeated: n at the reference run length,
// more in proportion on a longer run, never fewer. It is a function of the
// command line alone and never of a measured time, so that two commits, or
// a quiet and a busy host, do the same work.
func (c *config) reps(n int) int {
	return max(n, int(float64(n)*c.seconds/refSeconds))
}

// scaled shrinks a size by cfg.scale, never below lo.
func (c *config) scaled(n, lo int) int {
	return max(int(float64(n)*c.scale), lo)
}

// inputs is everything a workload's passes consume, made from the seed
// before the first timed pass.
type inputs struct {
	env     *env
	body    []byte            // CSV feed (batch-day: device by device; fleet-saturate: by time)
	recs    []position.Record // the feed as records, in feed order
	sched   *schedule         // recs indexed per device (streaming workloads)
	records int               // size of the ingest phase
	preload []tripstore.Trip  // store-mixed: the trips the load phase stores
	warm    *inputs           // what the warm-up pass ingests, when not all of this
}

// workload is one named input shape. Every workload runs the same two
// phases — ingest passes into fresh stores, and dashboard rounds (script,
// close, reopen) on copies of the store the first pass left — and differs in
// how trips get into the store, in sizes and in repetition counts.
type workload struct {
	name string
	why  string
	// build makes the inputs. It runs several times per run (setup_s is the
	// median), so it must be a pure function of cfg.
	build func(cfg *config) (*inputs, error)
	// ingest drives the workload's own shape of load into sys.
	ingest func(r *run, sys *system, col *collector) (ingested, error)
	// scriptOps is the length of the dashboard script at scale 1.
	scriptOps int
	// passes and rounds are how many timed ingest passes and dashboard
	// rounds a run of refSeconds makes (config.reps). Timing metrics are
	// the median repetition.
	passes, rounds int
}

var workloads = []workload{
	{
		name: "batch-day",
		why: "a day of records as one CSV through the batch Translator into warehouse and views: " +
			"parse, batch clean/annotate, knowledge+complement, bulk ingest; the online engine does nothing",
		build: buildBatchDay, ingest: ingestBatch, scriptOps: 16_000, passes: 9, rounds: 9,
	},
	{
		name: "fleet-saturate",
		why: "the same fleet as a time-ordered CSV fed closed loop into a P-shard engine: " +
			"thousands of short sessions, so routing, session set-up, short-tail flushes and sealing dominate",
		build: buildFleetSaturate, ingest: ingestFleetSaturate, scriptOps: 16_000, passes: 9, rounds: 9,
	},
	{
		name: "longtail-saturate",
		why: "a few devices with very long unbroken sessions, pre-parsed, closed loop: " +
			"no parsing or session churn, every flush over a multi-thousand-record tail",
		build: buildLongtail, ingest: ingestLongtail, scriptOps: 16_000, passes: 13, rounds: 13,
	},
	{
		// One pass: the production timers are what it measures, so the
		// feed must last many flush and snapshot periods; samples are pooled.
		name: "fleet-paced",
		why: "the fleet pre-parsed, open loop at a fixed 50k records/s with production timers, autosnapshot and a subscriber: " +
			"freshness below saturation, set by flush cadence and stalls, not CPU",
		build: buildFleetPaced, ingest: ingestFleetPaced, scriptOps: 8_000, passes: 1, rounds: 9,
	},
	{
		name: "store-mixed",
		why: "a bulk-loaded durable store under a long single-client script of tee-path inserts beside reads, " +
			"a mid-script snapshot, close and reopen: append, query, bytes on disk and boot time together",
		build: buildStoreMixed, ingest: ingestStoreMixed, scriptOps: 30_000, passes: 7, rounds: 7,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// Sizes at scale 1, chosen on the 2-core reference box so that an ingest
// pass takes about half a second, a dashboard round about one and a build
// about one (README, "Sizes").
const (
	batchDevices    = 800
	fleetDevices    = 500
	longtailDevices = 16
	longtailRecords = 12_000
	longtailMaxTail = 8192
	longtailTrain   = 60 // shoppers simulated only to train the translator
	storeDevices    = 400
	storePreload    = 40_000
	// pacedSeconds is how long the open-loop feed lasts: sixteen periods of
	// the flush timer, four of the snapshot.
	pacedSeconds = 8
	// pacedPerDevice is a safe lower bound on the records one simulated
	// shopper produces, used to size the paced fleet from the schedule.
	pacedPerDevice = 280
)

func buildBatchDay(cfg *config) (*inputs, error) {
	e, err := newEnv(cfg.seed, cfg.scaled(batchDevices, 40), cfg.par)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	buf.Grow(64 * e.fleet.NumRecords())
	if err := position.WriteCSV(&buf, e.fleet); err != nil {
		return nil, err
	}
	return &inputs{env: e, body: buf.Bytes(), records: e.fleet.NumRecords()}, nil
}

func buildFleetSaturate(cfg *config) (*inputs, error) {
	e, err := newEnv(cfg.seed, cfg.scaled(fleetDevices, 40), cfg.par)
	if err != nil {
		return nil, err
	}
	body, err := encodeCSV(interleaved(e.fleet))
	if err != nil {
		return nil, err
	}
	recs, err := parseCSV(body)
	if err != nil {
		return nil, err
	}
	return &inputs{env: e, body: body, recs: recs, sched: newSchedule(recs), records: len(recs)}, nil
}

func buildLongtail(cfg *config) (*inputs, error) {
	e, err := newEnv(cfg.seed, longtailTrain, cfg.par)
	if err != nil {
		return nil, err
	}
	recs := longSessions(e, cfg.seed, cfg.scaled(longtailDevices, 2), cfg.scaled(longtailRecords, 1500), cfg.par)
	return &inputs{env: e, recs: recs, sched: newSchedule(recs), records: len(recs)}, nil
}

func buildFleetPaced(cfg *config) (*inputs, error) {
	want := int(pacedRate * pacedSeconds * cfg.scale)
	want = max(want-want%pacedPerTick, 20*pacedPerTick)
	e, err := newEnv(cfg.seed, max(want/pacedPerDevice, 40), cfg.par)
	if err != nil {
		return nil, err
	}
	recs := interleaved(e.fleet)
	if len(recs) < want {
		return nil, fmt.Errorf("fleet-paced: fleet has %d records, schedule needs %d", len(recs), want)
	}
	in := func(recs []position.Record) *inputs {
		return &inputs{env: e, recs: recs, sched: newSchedule(recs), records: len(recs)}
	}
	full := in(recs[:want])
	// The warm-up takes a tenth of the schedule, but enough that trips seal.
	n := min(max(want/10, 16*pacedPerTick), want)
	full.warm = in(recs[:n-n%pacedPerTick])
	return full, nil
}

func buildStoreMixed(cfg *config) (*inputs, error) {
	e, err := newEnv(cfg.seed, cfg.scaled(storeDevices, 40), cfg.par)
	if err != nil {
		return nil, err
	}
	var base []tripstore.Trip
	for _, r := range e.trans.Translate(e.fleet) {
		for i, t := range r.Final.Triplets {
			base = append(base, tripstore.Trip{Device: r.Device, Seq: i, Triplet: t})
		}
	}
	base = dedupe(base)
	if len(base) == 0 {
		return nil, fmt.Errorf("store-mixed: translation produced no trips")
	}
	// Replicate the real trips across days, one fresh device name per
	// replica, until the store is the size a long-running venue has.
	n := cfg.scaled(storePreload, 2000)
	preload := make([]tripstore.Trip, 0, n)
	for k := 0; len(preload) < n; k++ {
		shift := time.Duration(k) * 24 * time.Hour
		for _, t := range base {
			if len(preload) == n {
				break
			}
			t.Device = position.DeviceID(fmt.Sprintf("%s.d%d", t.Device, k))
			t.Triplet.From = t.Triplet.From.Add(shift)
			t.Triplet.To = t.Triplet.To.Add(shift)
			preload = append(preload, t)
		}
	}
	return &inputs{env: e, preload: preload, records: len(preload)}, nil
}

// ingested is what a workload's ingest phase reports.
type ingested struct {
	stopwatch           // through the final flush and close, the heap probe excluded
	heap      uint64    // live heap at maximum state
	fresh     []float64 // ms
	engine    *online.Stats
	late      []time.Duration // open loop: how late each tick started
	depth     []int           // traced: deepest shard inbox, sampled every 10 ms
}

// ingestBatch is trips.System.Translate with both stores attached. A trip's
// freshness here is how long after the day's file was handed over it
// reached the sink: batch staleness, the whole job for the last trips.
func ingestBatch(r *run, sys *system, col *collector) (ingested, error) {
	var out ingested
	out.start()
	t0 := out.first
	sp := r.tr.start("position.ReadCSV")
	ds, err := position.ReadCSV(bytes.NewReader(r.in.body))
	sp.end(r.in.records)
	if err != nil {
		return out, err
	}
	sp = r.tr.start("core.TranslateTo")
	results, err := r.in.env.trans.TranslateTo(ds, core.MultiSink(sys.wh, sys.an, col))
	sp.end(r.in.records)
	if err != nil {
		return out, err
	}
	sp = r.tr.start("tripstore.Flush")
	err = sys.wh.Flush()
	sp.end(1)
	if err != nil {
		return out, err
	}
	out.stop()
	out.heap = liveHeap()
	runtime.KeepAlive(results)
	runtime.KeepAlive(ds)

	out.fresh = make([]float64, len(col.at))
	for i, at := range col.at {
		out.fresh[i] = float64(at.Sub(t0).Nanoseconds()) / 1e6
	}
	return out, nil
}

// saturating is the engine configuration of the closed-loop workloads:
// count-triggered flushes only, so flush, trip and byte counts repeat.
func saturating(par int) online.Config {
	return online.Config{Shards: par, FlushInterval: -1, IdleTimeout: -1}
}

// feeder hands records to Engine.Ingest. In a traced run it also times the
// calls, logging one span per stampEvery records: the sum of the block's
// calls, laid at the block's start.
type feeder struct {
	eng    *online.Engine
	tr     *tracer
	n      int
	stamps []time.Time // hand-over time of each block of stampEvery records

	blockStart time.Time
	blockNS    time.Duration
	blockN     int
}

func (f *feeder) ingest(rec position.Record) error {
	if f.n%stampEvery == 0 {
		now := time.Now()
		f.stamps = append(f.stamps, now)
		f.flushBlock(now)
	}
	f.n++
	if f.tr == nil {
		return f.eng.Ingest(rec)
	}
	t0 := time.Now()
	err := f.eng.Ingest(rec)
	f.blockNS += time.Since(t0)
	f.blockN++
	return err
}

// flushBlock logs the finished block's call time and starts the next.
func (f *feeder) flushBlock(now time.Time) {
	if f.blockN > 0 {
		f.tr.record("online.Ingest", f.blockStart, f.blockNS, f.blockN)
	}
	f.blockStart, f.blockNS, f.blockN = now, 0, 0
}

func (f *feeder) due(i int) time.Time { return f.stamps[i/stampEvery] }

// ingestFleetSaturate is what trips-server's ingest handler does with a
// request body, without the HTTP hop: StreamCSV straight into a blocking
// Ingest, the full inbox as backpressure.
func ingestFleetSaturate(r *run, sys *system, col *collector) (ingested, error) {
	return r.stream(sys, col, saturating(r.cfg.par), func(f *feeder) (func(int) time.Time, []time.Duration, error) {
		_, err := position.StreamCSV(bytes.NewReader(r.in.body), f.ingest)
		return f.due, nil, err
	})
}

func ingestLongtail(r *run, sys *system, col *collector) (ingested, error) {
	cfg := saturating(r.cfg.par)
	cfg.MaxTail = longtailMaxTail
	return r.stream(sys, col, cfg, func(f *feeder) (func(int) time.Time, []time.Duration, error) {
		for _, rec := range r.in.recs {
			if err := f.ingest(rec); err != nil {
				return nil, nil, err
			}
		}
		return f.due, nil, nil
	})
}

// ingestFleetPaced keeps the engine's production defaults (500 ms flush
// timer, FlushEvery 64) and runs what a live server runs beside the feed: a
// periodic view snapshot that flushes the trip log first, and one
// subscriber draining the delta feed.
func ingestFleetPaced(r *run, sys *system, col *collector) (ingested, error) {
	stopSnap := sys.an.StartAutoSnapshot(sys.snapshotOptions(), 2*time.Second)
	sub := sys.an.Subscribe(nil)
	var drained sync.WaitGroup
	drained.Add(1)
	go func() {
		defer drained.Done()
		for range sub.C() {
		}
	}()
	out, err := r.stream(sys, col, online.Config{Shards: r.cfg.par}, func(f *feeder) (func(int) time.Time, []time.Duration, error) {
		start := time.Now()
		late, err := pace(wallClock{}, start, len(r.in.recs), pacedPerTick, pacedTick, func(lo, hi int) error {
			for _, rec := range r.in.recs[lo:hi] {
				if err := f.ingest(rec); err != nil {
					return err
				}
			}
			return nil
		})
		due := func(i int) time.Time { return start.Add(time.Duration(i/pacedPerTick) * pacedTick) }
		return due, late, err
	})
	serr := stopSnap()
	sub.Close()
	drained.Wait()
	if err == nil {
		err = serr
	}
	return out, err
}

// stream runs one streaming ingest phase: start the engine over the tee
// chain, feed it, flush, measure the heap at maximum state with the clock
// stopped, close. feed returns the hand-over time of each stream index.
func (r *run) stream(sys *system, col *collector, cfg online.Config,
	feed func(*feeder) (due func(int) time.Time, late []time.Duration, err error)) (ingested, error) {
	var out ingested
	cfg.Metrics = r.tr.onlineMetrics()
	sp := r.tr.start("ingest")
	eng, err := sys.engine(r.in.env.trans, cfg, col, r.tr, sp.id)
	if err != nil {
		return out, err
	}
	stopDepth := sampleDepth(eng, r.tr != nil, &out.depth)

	f := &feeder{eng: eng, tr: r.tr}
	out.start()
	fsp := r.tr.start("feed")
	due, late, err := feed(f)
	f.flushBlock(time.Now())
	fsp.end(f.n)
	if err != nil {
		stopDepth()
		eng.Close()
		return out, err
	}
	eng.Flush()
	out.stop()
	stopDepth()
	out.heap = liveHeap()
	col.markClosing()
	out.start()
	csp := r.tr.start("online.Close")
	eng.Close()
	csp.end(1)
	out.stop()
	sp.end(f.n)

	out.late = late
	st := eng.Stats()
	out.engine = &st
	out.fresh = freshness(col, r.in.sched, eng.Horizon(), due)
	return out, nil
}

// sampleDepth samples the deepest shard inbox every 10 ms until the
// returned stop function is called (once); a no-op unless on.
func sampleDepth(eng *online.Engine, on bool, into *[]int) (stop func()) {
	if !on {
		return func() {}
	}
	done := make(chan struct{})
	var exited sync.WaitGroup
	exited.Add(1)
	go func() {
		defer exited.Done()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				deepest := 0
				for _, d := range eng.Stats().ShardDepth {
					deepest = max(deepest, d)
				}
				*into = append(*into, deepest)
			}
		}
	}()
	return func() {
		close(done)
		exited.Wait()
	}
}

// ingestStoreMixed bulk-loads the replicated trips through the tee path,
// the way a backfill from an archive would: no translation, one Insert +
// IngestTrip per trip, handed over in blocks as the other closed loops hand
// over records. A trip is visible when its two calls return, so its
// freshness is that instant minus its block's stamp.
// loadBlock is the hand-over block of the bulk load. It is deliberately not
// a multiple of the trip log's 256-trip segment, so that segment writes fall
// at a different place in every block and no quantile of the freshness
// samples sits on the edge of one.
const loadBlock = 1000

func ingestStoreMixed(r *run, sys *system, col *collector) (ingested, error) {
	var out ingested
	out.fresh = make([]float64, 0, len(r.in.preload))
	sp := r.tr.start("load")
	out.start()
	var stamp time.Time
	for i := range r.in.preload {
		if i%loadBlock == 0 {
			stamp = time.Now()
		}
		t := &r.in.preload[i]
		if err := sys.wh.Insert(*t); err != nil {
			return out, err
		}
		sys.an.IngestTrip(t.Device, t.Triplet)
		out.fresh = append(out.fresh, float64(time.Since(stamp).Nanoseconds())/1e6)
	}
	if err := sys.wh.Flush(); err != nil {
		return out, err
	}
	out.stop()
	sp.end(len(r.in.preload))
	out.heap = liveHeap()
	col.trips = r.in.preload
	return out, nil
}
