package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"trips/internal/analytics"
	"trips/internal/annotation"
	"trips/internal/cleaning"
	"trips/internal/complement"
	"trips/internal/experiments"
	"trips/internal/intern"
	"trips/internal/online"
	"trips/internal/position"
	"trips/internal/semantics"
	"trips/internal/storage"
	"trips/internal/tripstore"
)

// ledgerDevices caps the fleet the staged replays run over: they report
// per-record costs, which a few hundred shoppers already give steadily.
const ledgerDevices = 300

// ledgerLong is the length of the long session the incr_long rows replay.
const ledgerLong = 8192

// ledger reduces a traced run to the per-layer metrics: rows read off the
// spans and counters of the traced passes, then rows from staged replays
// that call one layer at a time, single-threaded, on this run's own fleet.
func (r *run) ledger(traced, plain []pass, rounds []round, scriptOps int, warm pass) (map[string]value, error) {
	m := make(map[string]float64)
	roundRows(m, rounds, scriptOps)
	r.liveRows(m, traced, plain, rounds, warm)
	if err := r.stagedRows(m); err != nil {
		return nil, err
	}
	out := make(map[string]value, len(perLayer))
	for _, d := range perLayer {
		out[d.name] = value{m[d.name], d.unit}
	}
	return out, nil
}

// ratio is a/b, 0 when b is 0 (a layer the workload never entered).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

const msPerNS = 1e-6

// liveRows fills the rows measured while the workload itself ran.
func (r *run) liveRows(m map[string]float64, traced, plain []pass, rounds []round, warm pass) {
	spans := r.tr.spans
	ns, cnt := totals(spans)
	self := selfTimes(spans)
	f := func(name string) float64 { return float64(ns[name]) }
	c := func(name string) float64 { return float64(cnt[name]) }
	med := func(ps []pass, g func(*pass) float64) float64 { return median(col(ps, g)) }
	rmed := func(g func(*round) float64) float64 { return median(col(rounds, g)) }
	recs := float64(r.in.records)
	fed := recs * float64(len(traced)) // records the traced passes ingested

	// online: driver-side call spans, the engine's own flush-stage
	// histograms (the benchmark cannot call inside a flush), its counters.
	m["online.ingest_call_ns_per_record"] = ratio(f("online.Ingest"), c("online.Ingest"))
	m["online.driver_blocked_pct"] = 100 * ratio(f("online.Ingest"), f("feed"))
	var depth []float64
	for i := range traced {
		for _, d := range traced[i].ing.depth {
			depth = append(depth, float64(d))
		}
	}
	d := reduce(depth)
	m["online.inbox_depth_p50"], m["online.inbox_depth_max"] = d.p50, d.max
	if e := traced[len(traced)-1].ing.engine; e != nil {
		om := r.tr.online
		m["online.flush_clean_ns_per_record"] = float64(om.CleanSeconds.Sum()) / fed
		m["online.flush_annotate_ns_per_record"] = float64(om.AnnotateSeconds.Sum()) / fed
		m["online.flush_seal_ns_per_record"] = float64(om.SealSeconds.Sum()) / fed
		m["online.seal_self_ns_per_record"] = (float64(om.SealSeconds.Sum()) - f("tee.warehouse")) / fed
		m["online.flushes_per_krecord"] = 1000 * float64(e.Flushes) / recs
		m["online.incremental_flush_ratio"] = ratio(float64(e.IncrementalFlushes), float64(e.Flushes))
		m["online.trims_per_ktrip"] = 1000 * ratio(float64(e.Trims+e.ForcedTrims), float64(e.TripletsOut))
		m["online.late_records"] = float64(e.Late)
		m["online.duplicate_records"] = float64(e.Duplicates)
	}

	// tripstore and analytics: the tees' self times where the workload
	// streams, else the two halves of the script's tee-path insert.
	if cnt["tee.warehouse"] > 0 {
		m["tripstore.append_self_ns_per_trip"] = float64(self["tee.warehouse"]) / c("tee.warehouse")
		m["analytics.fold_self_ns_per_trip"] = float64(self["tee.analytics"]) / c("tee.analytics")
	} else {
		m["tripstore.append_self_ns_per_trip"] = ratio(f("tripstore.Insert"), c("tripstore.Insert"))
		m["analytics.fold_self_ns_per_trip"] = ratio(f("analytics.IngestTrip"), c("analytics.IngestTrip"))
	}
	lat := func(k opKind, g func(tails) float64) float64 {
		return rmed(func(r *round) float64 { return g(r.lat[k]) })
	}
	p50 := func(t tails) float64 { return t.p50 }
	p99 := func(t tails) float64 { return t.p99 }
	m["tripstore.insert_p99_us"] = lat(opInsert, p99)
	m["tripstore.query_device_p50_us"], m["tripstore.query_device_p99_us"] = lat(opDevice, p50), lat(opDevice, p99)
	m["tripstore.query_region_p50_us"], m["tripstore.query_region_p99_us"] = lat(opRegion, p50), lat(opRegion, p99)
	m["tripstore.query_range_p50_us"], m["tripstore.query_range_p99_us"] = lat(opRange, p50), lat(opRange, p99)
	m["tripstore.scanned_per_row"] = rmed(func(r *round) float64 { return ratio(float64(r.sv.scanned), float64(r.sv.rows)) })
	m["tripstore.segment_write_p50_ms"] = float64(r.tr.store.SegmentWriteSeconds.Quantile(0.5)) * msPerNS
	m["tripstore.flush_ms"] = ratio(f("tripstore.Flush"), c("tripstore.Flush")) * msPerNS
	m["tripstore.snapshot_write_ms"] = ratio(f("tripstore.Snapshot"), c("tripstore.Snapshot")) * msPerNS
	boot := under(spans, "reopen")
	m["tripstore.replay_ms"] = boot("tripstore.New") * msPerNS
	m["analytics.snapshot_load_ms"] = boot("analytics.LoadSnapshot") * msPerNS
	m["analytics.bootstrap_tail_ms"] = boot("analytics.Bootstrap") * msPerNS
	m["analytics.snapshot_save_ms"] = ratio(f("analytics.SaveSnapshot"), c("analytics.SaveSnapshot")) * msPerNS
	m["analytics.fold_dropped_per_ktrip"] = rmed(func(r *round) float64 { return 1000 * ratio(float64(r.dropped), float64(r.trips)) })
	m["analytics.occupancy_p50_us"] = lat(opOccupancy, p50)
	m["analytics.topk_p50_us"] = lat(opTopK, p50)
	m["analytics.flows_p50_us"] = lat(opFlows, p50)
	m["analytics.dwell_p50_us"] = lat(opDwell, p50)

	m["storage.bytes_written_per_trip"] = rmed(func(rd *round) float64 {
		return ratio(float64(traced[len(traced)-1].written+rd.written), float64(rd.trips))
	})
	m["storage.files"] = rmed(func(r *round) float64 { return float64(r.files) })

	// runtime: allocation is read off the untraced passes (the span log
	// allocates); the open-loop workload has only its traced pass.
	base := plain
	if len(base) == 0 {
		base = traced
	}
	m["runtime.alloc_b_per_record"] = med(base, func(p *pass) float64 { return float64(p.mem.bytes) / recs })
	m["runtime.allocs_per_record"] = med(base, func(p *pass) float64 { return float64(p.mem.mallocs) / recs })
	m["runtime.gc_cycles"] = med(base, func(p *pass) float64 { return float64(p.mem.cycles) })
	m["runtime.gc_pause_total_ms"] = med(base, func(p *pass) float64 { return float64(p.mem.pause) * msPerNS })
	m["runtime.peak_rss_mb"] = peakRSS()

	// bench: how far the generator and the passes themselves can be trusted.
	m["bench.late_p99_ms"] = med(traced, func(p *pass) float64 { return p.late.p99 })
	m["bench.freshness_p999_ms"] = med(traced, func(p *pass) float64 { return p.fresh.p999 })
	ingestWall := func(p *pass) float64 { return p.ing.wall.Seconds() }
	m["bench.pass_spread_pct"] = 100 * max(
		spread(col(base, ingestWall)),
		spread(col(base, func(p *pass) float64 { return p.ing.cpu.Seconds() })),
		spread(col(rounds, func(r *round) float64 { return r.sv.wall.Seconds() })),
		spread(col(rounds, func(r *round) float64 { return r.sv.cpu.Seconds() })),
		spread(col(rounds, func(r *round) float64 { return r.reopen.wall.Seconds() })))
	if len(plain) > 0 {
		with, without := med(traced, ingestWall), med(plain, ingestWall)
		m["bench.trace_overhead_pct"] = 100 * (with - without) / without
	} else {
		// One open-loop pass: wall time is the schedule, so compare the CPU
		// a record cost against the untraced warm-up's.
		with := traced[0].ing.cpu.Seconds() / recs
		without := warm.ing.cpu.Seconds() / float64(warm.records)
		m["bench.trace_overhead_pct"] = 100 * (with - without) / without
	}
}

// under returns a function giving the mean duration, per span named
// parent, of its direct children with a given name.
func under(spans []span, parent string) func(child string) float64 {
	parents := make(map[int]bool)
	for _, s := range spans {
		if s.Name == parent {
			parents[s.ID] = true
		}
	}
	return func(child string) float64 {
		var total int64
		for _, s := range spans {
			if s.Name == child && parents[s.Parent] {
				total += s.End - s.Start
			}
		}
		return ratio(float64(total), float64(len(parents)))
	}
}

// peakRSS reads the process's resident-set high-water mark, in MB.
func peakRSS() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// stagedRows fills the isolated rows: each layer's public functions called
// on their own over the same records, one after another on one goroutine,
// every call under a span.
func (r *run) stagedRows(m map[string]float64) error {
	e, tr := r.in.env, r.tr
	sp := tr.start("ledger")
	defer func() { sp.end(1) }()

	ds := position.NewDataset()
	for i, s := range e.fleet.Sequences() {
		if i == ledgerDevices {
			break
		}
		ds.AddSequence(s)
	}
	seqs := ds.Sequences()
	recs := interleaved(ds)
	n := float64(len(recs))
	per := func(d time.Duration, by float64) float64 { return ratio(float64(d.Nanoseconds()), by) }
	noop := func(position.Record) error { return nil }

	// position: both wire formats into a callback that drops the record.
	body, err := encodeCSV(recs)
	if err != nil {
		return err
	}
	alloc := readMem().TotalAlloc
	d := tr.timed("position.StreamCSV", len(recs), func() { _, err = position.StreamCSV(bytes.NewReader(body), noop) })
	if err != nil {
		return err
	}
	m["position.csv_ns_per_record"] = per(d, n)
	m["position.csv_alloc_b_per_record"] = float64(readMem().TotalAlloc-alloc) / n
	var jsonl bytes.Buffer
	if err := position.WriteJSONL(&jsonl, ds); err != nil {
		return err
	}
	d = tr.timed("position.StreamJSONL", len(recs), func() { _, err = position.StreamJSONL(&jsonl, noop) })
	if err != nil {
		return err
	}
	m["position.jsonl_ns_per_record"] = per(d, n)

	// intern: the fleet's device ids, first sight then steady state.
	const tables = 200 // fresh tables per cold timing: one holds too few ids to time
	d = tr.timed("intern.Intern/miss", tables*len(seqs), func() {
		for i := 0; i < tables; i++ {
			var t intern.Table
			for _, s := range seqs {
				t.Intern(string(s.Device))
			}
		}
	})
	m["intern.miss_ns_per_insert"] = per(d, float64(tables*len(seqs)))
	var devs intern.Table
	for _, s := range seqs {
		devs.Intern(string(s.Device))
	}
	d = tr.timed("intern.Intern/hit", len(recs), func() {
		for i := range recs {
			devs.Intern(string(recs[i].Device))
		}
	})
	m["intern.hit_ns_per_lookup"] = per(d, n)

	// cleaning and annotation, batch form: the Translator's phase one, one
	// call at a time.
	cl, an := e.trans.Cleaner, e.trans.Annotator
	cleaned := make([]*position.Sequence, len(seqs))
	repaired := 0
	d = tr.timed("cleaning.Clean", len(recs), func() {
		for i, s := range seqs {
			var rep cleaning.Report
			cleaned[i], rep = cl.Clean(s)
			repaired += rep.Modified()
		}
	})
	clean := d
	m["cleaning.batch_ns_per_record"] = per(d, n)
	m["cleaning.repaired_per_krecord"] = 1000 * float64(repaired) / n
	var snippets []annotation.Snippet
	d = tr.timed("annotation.Split", len(recs), func() {
		for _, c := range cleaned {
			snippets = append(snippets, annotation.Split(c, an.Cfg.Split)...)
		}
	})
	m["annotation.split_ns_per_record"] = per(d, n)
	m["annotation.snippets_per_krecord"] = 1000 * float64(len(snippets)) / n
	d = tr.timed("annotation.Identify", len(snippets), func() {
		for _, sn := range snippets {
			an.Events.Identify(sn)
		}
	})
	m["annotation.identify_ns_per_snippet"] = per(d, float64(len(snippets)))
	originals := make([]*semantics.Sequence, len(cleaned))
	trips := 0
	d = tr.timed("annotation.Annotate", len(recs), func() {
		for i, c := range cleaned {
			originals[i] = an.Annotate(c)
			trips += len(originals[i].Triplets)
		}
	})
	annotate := d
	m["annotation.batch_ns_per_record"] = per(d, n)

	// complement: phase two.
	var know *complement.Knowledge
	d = tr.timed("complement.BuildKnowledge", trips, func() {
		know = complement.BuildKnowledge(e.model, originals, e.trans.KnowledgeJoinGap)
	})
	knowledge := d
	m["complement.knowledge_ns_per_trip"] = per(d, float64(trips))
	inferred := 0
	if comp := e.trans.Complementor; comp != nil {
		c := *comp
		c.Know = know
		d = tr.timed("complement.Complement", trips, func() {
			for _, o := range originals {
				_, ins := c.Complement(o)
				inferred += ins
			}
		})
		m["complement.infer_ns_per_trip"] = per(d, float64(trips))
		m["complement.inferred_per_ktrip"] = 1000 * ratio(float64(inferred), float64(trips))
	}
	infer := d

	// core: the whole Translator on one worker must cost about what its
	// layers cost one by one; the residual is what the ledger is missing.
	one := *e.trans
	one.Workers = 1
	d = tr.timed("core.Translate/w1", len(recs), func() { one.Translate(ds) })
	m["core.translate_w1_ns_per_record"] = per(d, n)
	m["core.layer_sum_residual_pct"] = 100 * float64(d-clean-annotate-knowledge-infer) / float64(d)
	results := e.trans.Translate(ds) // warm the P-worker path's pools before timing it
	d = tr.timed("core.Translate/wp", len(recs), func() { results = e.trans.Translate(ds) })
	m["core.translate_wp_ns_per_record"] = per(d, n)

	// Incremental forms at the engine's flush cadence: a tail that grows
	// by FlushEvery records per call, fleet-shaped (short) and one long
	// unbroken session.
	eng, err := e.trans.NewOnline(online.Config{Shards: 1, FlushInterval: -1, IdleTimeout: -1,
		Emitter: online.EmitterFunc(func(online.Emission) {})})
	if err != nil {
		return err
	}
	horizon := eng.Horizon()
	short := r.incremental(seqs, horizon)
	m["cleaning.incr_short_ns_per_record"] = per(short.clean, n)
	m["annotation.incr_short_ns_per_record"] = per(short.annotate, n)
	long := &position.Sequence{Device: "ledger-long", Records: experiments.LongSessionRecords(e.exp, "ledger-long", ledgerLong)}
	lg := r.incremental([]*position.Sequence{long}, horizon)
	m["cleaning.incr_long_ns_per_record"] = per(lg.clean, ledgerLong)
	m["annotation.incr_long_ns_per_record"] = per(lg.annotate, ledgerLong)

	// online: what a device's first record costs over a later one. Fresh
	// devices (the fleet's first records under new names) get one record
	// each, then a second each; nothing flushes, and a snapshot query on
	// the single shard is the barrier that waits for the inbox to drain.
	const renames = 20 // fleets' worth of fresh device names
	var firsts, seconds []position.Record
	for k := 0; k < renames; k++ {
		for _, s := range seqs {
			if len(s.Records) < 2 {
				continue
			}
			a, b := s.Records[0], s.Records[1]
			a.Device = position.DeviceID(fmt.Sprintf("%s+%d", a.Device, k))
			b.Device = a.Device
			firsts, seconds = append(firsts, a), append(seconds, b)
		}
	}
	quiet, err := e.trans.NewOnline(online.Config{Shards: 1, FlushEvery: 1 << 30, FlushInterval: -1, IdleTimeout: -1,
		Emitter: online.EmitterFunc(func(online.Emission) {})})
	if err != nil {
		return err
	}
	round := func(name string, recs []position.Record) time.Duration {
		return tr.timed(name, len(recs), func() {
			for _, rec := range recs {
				quiet.Ingest(rec) // cannot fail before Close
			}
			quiet.Snapshot(recs[len(recs)-1].Device)
		})
	}
	first, second := round("online.Ingest/first", firsts), round("online.Ingest/second", seconds)
	quiet.Close()
	eng.Close()
	m["online.new_session_ns"] = per(first-second, float64(len(firsts)))

	// tripstore, storage, analytics: bulk ingest of the batch results into
	// a fresh durable store, a cold bootstrap of the views from it, real
	// segment documents through the backend store, fold with and without
	// subscribers.
	dir := filepath.Join(r.cfg.tmp, "ledger")
	defer os.RemoveAll(dir)
	st, err := storage.Open(dir)
	if err != nil {
		return err
	}
	wh, err := tripstore.New(tripstore.Options{Log: &tripstore.LogOptions{Store: st}})
	if err != nil {
		return err
	}
	stored := 0
	d = tr.timed("tripstore.IngestResult", trips+inferred, func() {
		for _, res := range results {
			if err = wh.IngestResult(res); err != nil {
				return
			}
			stored += len(res.Final.Triplets)
		}
		err = wh.Flush()
	})
	if err != nil {
		return err
	}
	m["tripstore.ingest_result_ns_per_trip"] = per(d, float64(stored))
	d = tr.timed("analytics.Bootstrap/full", stored, func() {
		err = analytics.New(analytics.Config{Shards: r.cfg.par}).Bootstrap(wh)
	})
	if err != nil {
		return err
	}
	m["analytics.bootstrap_full_ms"] = float64(d.Nanoseconds()) * msPerNS
	page, err := wh.Query(tripstore.QuerySpec{})
	if err != nil {
		return err
	}
	if err := wh.Close(); err != nil {
		return err
	}
	if err := r.storageRows(m, st, page.Trips); err != nil {
		return err
	}
	fold := func(name string, subscribers int) time.Duration {
		views := analytics.New(analytics.Config{Shards: r.cfg.par})
		stop := drain(views, subscribers)
		defer stop()
		return tr.timed(name, len(page.Trips), func() {
			for _, res := range results {
				views.IngestResult(res) // cannot fail
			}
		})
	}
	alone, fanned := fold("analytics.IngestResult/0", 0), fold("analytics.IngestResult/4", 4)
	m["analytics.fanout_ns_per_delta"] = max(0, per(fanned-alone, float64(4*len(page.Trips))))
	return nil
}

// storageRows times Store.Put and Store.Get of documents shaped like the
// warehouse's log segments (256 trips each, the default batch).
func (r *run) storageRows(m map[string]float64, st *storage.Store, trips []tripstore.Trip) error {
	type segment struct {
		Seq   int              `json:"seq"`
		Trips []tripstore.Trip `json:"trips"`
	}
	const col, batch = "ledger-segments", 256
	var docs []segment
	for i := 0; i+batch <= len(trips); i += batch {
		docs = append(docs, segment{Seq: len(docs) + 1, Trips: trips[i : i+batch]})
	}
	if len(docs) == 0 {
		return nil // a -scale too small for one full segment
	}
	var err error
	put := r.tr.timed("storage.Put", len(docs), func() {
		for _, doc := range docs {
			if err = st.Put(col, fmt.Sprintf("seg-%08d", doc.Seq), doc); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	size, _, err := dirBytes(filepath.Join(st.Root(), col))
	if err != nil {
		return err
	}
	get := r.tr.timed("storage.Get", len(docs), func() {
		for _, doc := range docs {
			var back segment
			if err = st.Get(col, fmt.Sprintf("seg-%08d", doc.Seq), &back); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	kb := float64(size) / 1024
	m["storage.put_us_per_kb"] = float64(put.Microseconds()) / kb
	m["storage.get_us_per_kb"] = float64(get.Microseconds()) / kb
	return nil
}

// drain attaches n subscribers that read every delta and returns the
// function that detaches them and waits for their goroutines.
func drain(views *analytics.Engine, n int) (stop func()) {
	subs := make([]*analytics.Subscription, n)
	done := make(chan struct{})
	for i := range subs {
		subs[i] = views.Subscribe(nil)
		go func(s *analytics.Subscription) {
			for range s.C() {
			}
			done <- struct{}{}
		}(subs[i])
	}
	return func() {
		for _, s := range subs {
			s.Close()
		}
		for range subs {
			<-done
		}
	}
}

// stageTimes is the time the two incremental layers took over a replay.
type stageTimes struct{ clean, annotate time.Duration }

// incremental replays each sequence the way a session's flushes see it: the
// tail grows by FlushEvery records per step and CleanFrom, then
// Incremental.Annotate, run over all of it. The admission floor trails the
// newest record by half the seal horizon, about where the engine's sealing
// keeps it on an in-order feed.
func (r *run) incremental(seqs []*position.Sequence, horizon time.Duration) stageTimes {
	const flushEvery = 64
	cl, an := r.in.env.trans.Cleaner, r.in.env.trans.Annotator
	var total stageTimes
	records := 0
	begin := time.Now()
	for _, s := range seqs {
		var st cleaning.State
		st.NoChanges = true
		inc := an.NewIncremental()
		for end := flushEvery; ; end += flushEvery {
			tail := &position.Sequence{Device: s.Device, Records: s.Records[:min(end, len(s.Records))]}
			t0 := time.Now()
			cleaned, _ := cl.CleanFrom(&st, tail, tail.End().Add(-horizon/2))
			t1 := time.Now()
			inc.Annotate(cleaned, st.StableSince())
			total.clean += t1.Sub(t0)
			total.annotate += time.Since(t1)
			if end >= len(s.Records) {
				break
			}
		}
		records += len(s.Records)
	}
	name := "short"
	if len(seqs) == 1 {
		name = "long"
	}
	r.tr.record("cleaning.CleanFrom/"+name, begin, total.clean, records)
	r.tr.record("annotation.Incremental.Annotate/"+name, begin.Add(total.clean), total.annotate, records)
	return total
}
