package main

import (
	"fmt"
	"os"
	"runtime"
	"time"
)

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is one measured run of one workload.
type outcome struct {
	workload  string
	metrics   map[string]value
	attempted int
	failed    int
	passes    int
	rounds    int
	dupes     int // emissions per pass the warehouse dropped as (device, From) duplicates
	digest    uint64
	records   int
	spans     []span
}

// measure runs one workload: build the inputs (several times, for a steady
// setup_s), one untimed warm-up pass and round, then a fixed number of
// identical timed ingest passes and of identical dashboard rounds. Every
// repetition is printed to standard error. With traced set it reports the
// per-layer ledger instead of the end-to-end metrics.
func measure(w *workload, cfg *config, traced bool) (*outcome, error) {
	r := &run{w: w, cfg: cfg}
	if err := os.MkdirAll(cfg.tmp, 0o755); err != nil {
		return nil, err
	}
	var err error
	if cfg.tmp, err = os.MkdirTemp(cfg.tmp, "run-"); err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.tmp)

	builds := make([]float64, setupBuilds)
	for i := range builds {
		r.in = nil
		runtime.GC()
		t0 := time.Now()
		if r.in, err = w.build(cfg); err != nil {
			return nil, fmt.Errorf("%s: build inputs: %w", w.name, err)
		}
		builds[i] = time.Since(t0).Seconds()
	}
	t0 := time.Now()
	warm, err := r.warmUp()
	if err != nil {
		return nil, fmt.Errorf("%s: warm-up: %w", w.name, err)
	}
	setup := median(builds) + time.Since(t0).Seconds()
	fmt.Fprintf(os.Stderr, "%s: builds %.3f s, warm-up %.3f s\n", w.name, builds, time.Since(t0).Seconds())

	out := &outcome{workload: w.name, records: r.in.records, failed: warm.failed}
	if traced {
		r.tr = newTracer(w.name)
	}
	// Passes and rounds alternate, so that each metric's repetitions are
	// spread over the whole run and a busy stretch of the host shorter than
	// half of it leaves the median repetition alone. The rounds run on
	// copies of the store the first pass left.
	var passes []pass
	var plain []pass // traced run only: untraced passes, for the overhead row
	var rounds []round
	var st stored
	var sc *script
	defer func() { os.RemoveAll(st.dir) }()
	nPasses, nRounds := cfg.reps(w.passes), cfg.reps(w.rounds)
	for i := 0; i < max(nPasses, nRounds); i++ {
		if i < nPasses {
			p, pst, err := r.ingestPass()
			if err != nil {
				os.RemoveAll(pst.dir)
				return nil, fmt.Errorf("%s: pass %d: %w", w.name, i+1, err)
			}
			passes = append(passes, p)
			fmt.Fprintf(os.Stderr, "pass %d: ingest %.4f s (cpu %.4f s) heap %.1f MB fresh p50 %.3f p99 %.3f ms (n=%d) failed %d digest %016x\n",
				i+1, p.ing.wall.Seconds(), p.ing.cpu.Seconds(), float64(p.heap)/1e6, p.fresh.p50, p.fresh.p99, p.fresh.n, p.failed, p.digest)
			if i == 0 {
				st = pst
				if sc, err = r.script(st); err != nil {
					return nil, fmt.Errorf("%s: script: %w", w.name, err)
				}
				st.trips = nil
			} else {
				os.RemoveAll(pst.dir)
			}
			if traced && nPasses > 1 {
				tr := r.tr
				r.tr = nil
				q, qst, err := r.ingestPass()
				r.tr = tr
				os.RemoveAll(qst.dir)
				if err != nil {
					return nil, fmt.Errorf("%s: untraced pass: %w", w.name, err)
				}
				plain = append(plain, q)
			}
		}
		if i < nRounds {
			rd, err := r.oneRound(st, sc)
			if err != nil {
				return nil, fmt.Errorf("%s: round %d: %w", w.name, i+1, err)
			}
			rounds = append(rounds, rd)
			fmt.Fprintf(os.Stderr, "round %d: script %.4f s (cpu %.4f s) insert p50 %.3f read p50 %.3f us reopen %.4f s trips %d disk %d failed %d\n",
				i+1, rd.sv.wall.Seconds(), rd.sv.cpu.Seconds(), rd.lat[opInsert].p50, rd.reads.p50, rd.reopen.wall.Seconds(), rd.trips, rd.disk, rd.failed)
		}
	}

	complain := func(what string, i int, why []string) {
		for _, line := range why {
			fmt.Fprintf(os.Stderr, "bench: %s %s %d: %s\n", w.name, what, i+1, line)
		}
	}
	complain("warm-up", 0, warm.why)
	for i, p := range append(passes, plain...) {
		out.attempted += r.in.records
		out.failed += p.failed
		if p.digest != passes[0].digest {
			out.failed++ // the translation output must repeat exactly
			p.why = append(p.why, fmt.Sprintf("output digest %016x differs from the first pass's %016x", p.digest, passes[0].digest))
		}
		complain("pass", i, p.why)
	}
	for i, rd := range rounds {
		out.attempted += len(sc.ops)
		out.failed += rd.failed
		complain("round", i, rd.why)
	}
	out.passes, out.rounds, out.digest, out.dupes = len(passes), len(rounds), passes[0].digest, passes[0].dupes
	if traced {
		out.spans = r.tr.spans
		out.metrics, err = r.ledger(passes, plain, rounds, len(sc.ops), warm)
		if err != nil {
			return nil, fmt.Errorf("%s: layer ledger: %w", w.name, err)
		}
	} else {
		out.metrics = r.endToEnd(setup, passes, rounds, len(sc.ops))
	}
	return out, nil
}

// warmUp is the untimed first pass and round: it pages the code in and
// grows the heap to its working size. Its failed checks count.
func (r *run) warmUp() (pass, error) {
	if full := r.in; full.warm != nil {
		r.in = full.warm
		defer func() { r.in = full }()
	}
	p, st, err := r.ingestPass()
	defer os.RemoveAll(st.dir)
	if err != nil {
		return p, err
	}
	sc, err := r.script(st)
	if err != nil {
		return p, err
	}
	rd, err := r.oneRound(st, sc)
	p.failed += rd.failed
	p.why = append(p.why, rd.why...)
	return p, err
}

// col extracts one number from each pass or round.
func col[T any](xs []T, f func(*T) float64) []float64 {
	out := make([]float64, len(xs))
	for i := range xs {
		out[i] = f(&xs[i])
	}
	return out
}

// endToEnd reduces the timed repetitions to the end-to-end metrics. Every
// one is the median repetition: of whole-pass wall and CPU times, so the
// work a time covers is the work a pass did; of per-pass and per-round
// quantiles; and of heap and disk, which are functions of the input and
// take the median only against stray bytes.
func (r *run) endToEnd(setup float64, passes []pass, rounds []round, scriptOps int) map[string]value {
	recs := float64(r.in.records)
	pmed := func(f func(*pass) float64) float64 { return median(col(passes, f)) }
	m := map[string]float64{
		"setup_s":           setup,
		"records_per_s":     recs / pmed(func(p *pass) float64 { return p.ing.wall.Seconds() }),
		"cpu_us_per_record": pmed(func(p *pass) float64 { return p.ing.cpu.Seconds() }) * 1e6 / recs,
		"live_heap_mb":      pmed(func(p *pass) float64 { return float64(p.heap) / 1e6 }),
		"freshness_p50_ms":  pmed(func(p *pass) float64 { return p.fresh.p50 }),
		"freshness_tail_ms": pmed(func(p *pass) float64 { return p.fresh.p99 }),
	}
	roundRows(m, rounds, scriptOps)
	out := make(map[string]value, len(endToEnd))
	for _, d := range endToEnd {
		out[d.name] = value{m[d.name], d.unit}
	}
	return out
}

// roundRows fills the rows of the dashboard rounds, each the median round.
// Some are end-to-end metrics; the per-op CPU time and the two latency
// medians were demoted to the ledger (README, "Noise") and are read off the
// traced run's rounds.
func roundRows(m map[string]float64, rounds []round, scriptOps int) {
	ops := float64(scriptOps)
	rmed := func(f func(*round) float64) float64 { return median(col(rounds, f)) }
	m["disk_bytes_per_trip"] = rmed(func(r *round) float64 { return float64(r.disk) / float64(r.trips) })
	m["ops_per_s"] = ops / rmed(func(r *round) float64 { return r.sv.wall.Seconds() })
	m["reopen_s"] = rmed(func(r *round) float64 { return r.reopen.wall.Seconds() })
	m["cpu_us_per_op"] = rmed(func(r *round) float64 { return r.sv.cpu.Seconds() }) * 1e6 / ops
	m["insert_p50_us"] = rmed(func(r *round) float64 { return r.lat[opInsert].p50 })
	m["query_p50_us"] = rmed(func(r *round) float64 { return r.reads.p50 })
}
