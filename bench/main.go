// Command bench is the repository's benchmark: five named workloads, nine
// end-to-end metrics and a per-layer ledger (README.md in this directory).
//
//	bash bench/run.sh --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] [-out FILE] [-trace-out FILE]
//	bash bench/run.sh -selfcheck N
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

// summary is the document -out writes: what ran, where, and what it
// measured. It claims nothing: a gain is claimed by a later change that
// compares two of these.
type summary struct {
	Benchmark string            `json:"benchmark"`
	Commit    string            `json:"commit"`
	Go        string            `json:"go"`
	Nproc     int               `json:"nproc"`
	P         int               `json:"p"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Scale     float64           `json:"scale"`
	Traced    bool              `json:"traced"`
	Workloads []workloadSummary `json:"workloads"`
	Claim     *struct{}         `json:"claim"` // always null
}

type workloadSummary struct {
	Name      string           `json:"name"`
	Passes    int              `json:"passes"`
	Rounds    int              `json:"rounds"`
	Records   int              `json:"records"`
	Digest    string           `json:"digest"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	var (
		name      = flag.String("workload", "all", "workload name, or all")
		seed      = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds   = flag.Float64("seconds", refSeconds, "run length; beyond the reference length it adds repetitions in proportion")
		trace     = flag.Int("trace", 0, "1 = traced run: report the per-layer ledger instead of the end-to-end metrics")
		scale     = flag.Float64("scale", 1, "shrink every size (tests use 0.01)")
		tmp       = flag.String("tmp", os.TempDir(), "directory for store files")
		out       = flag.String("out", "", "also write the run summary as JSON to this file")
		traceOut  = flag.String("trace-out", "", "traced run: write the span log as JSON to this file")
		commit    = flag.String("commit", "unknown", "commit the numbers describe (run.sh fills it in)")
		selfcheck = flag.Int("selfcheck", 0, "run every workload N times in two interleaved sets and compare them")
	)
	flag.Parse()
	cfg := config{seed: *seed, scale: *scale, seconds: *seconds, par: min(runtime.NumCPU(), 4), tmp: *tmp}

	if *selfcheck > 0 {
		ok, err := selfCheck(*selfcheck, &cfg)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	var chosen []*workload
	if *name == "all" {
		for i := range workloads {
			chosen = append(chosen, &workloads[i])
		}
	} else if w := findWorkload(*name); w != nil {
		chosen = []*workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}

	traced := *trace == 1
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	doc := summary{
		Benchmark: "trips/bench", Commit: *commit, Go: runtime.Version(), Nproc: runtime.NumCPU(),
		P: cfg.par, Seed: cfg.seed, Seconds: cfg.seconds, Scale: cfg.scale, Traced: traced,
	}
	var spans []span
	var last *outcome
	failed := 0
	for _, w := range chosen {
		run := cfg // measure makes its own scratch directory under tmp
		o, err := measure(w, &run, traced)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("== %s: %d passes of %d records, %d dashboard rounds, %d emissions deduped, output digest %016x, %d of %d ops failed\n",
			w.name, o.passes, o.records, o.rounds, o.dupes, o.digest, o.failed, o.attempted)
		for _, d := range defs {
			v := o.metrics[d.name]
			fmt.Printf("%-40s %16.4f %s\n", d.name, v.Value, v.Unit)
		}
		doc.Workloads = append(doc.Workloads, workloadSummary{
			Name: w.name, Passes: o.passes, Rounds: o.rounds, Records: o.records, Digest: fmt.Sprintf("%016x", o.digest),
			Attempted: o.attempted, Failed: o.failed, Metrics: o.metrics,
		})
		spans = append(spans, o.spans...)
		failed += o.failed
		last = o
	}
	if *out != "" {
		raw, err := json.MarshalIndent(doc, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(raw, '\n'), 0o644)
		}
		if err != nil {
			fatal(err)
		}
	}
	if *traceOut != "" && traced {
		if err := writeSpans(*traceOut, spans); err != nil {
			fatal(err)
		}
	}
	fmt.Println(`"claim": null`)
	if len(chosen) == 1 {
		// The contract's result line, last on standard output.
		line, err := json.Marshal(map[string]any{
			"correct": last.failed == 0, "attempted": last.attempted, "failed": last.failed, "metrics": last.metrics,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
	}
	if failed != 0 {
		fmt.Fprintf(os.Stderr, "bench: %d ops failed\n", failed)
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
