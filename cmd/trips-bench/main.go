// Command trips-bench runs the reproduction experiments E1–E6 — one per
// paper artifact (Table 1, Figures 1–6) — and prints their report tables.
//
// Usage:
//
//	trips-bench              # all experiments
//	trips-bench -exp e4      # one experiment (e1|e2|e3|e4|e5|e6)
//	trips-bench -devices 40 -floors 7 -shops 8 -seed 3
//
// Throughput, CPU and freshness numbers come from the repository benchmark
// instead (bench/README.md).
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"trips/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("trips-bench: ")
	var (
		exp     = flag.String("exp", "all", "experiment id: e1..e6 or all")
		devices = flag.Int("devices", 20, "simulated devices")
		floors  = flag.Int("floors", 3, "mall floors")
		shops   = flag.Int("shops", 6, "shops per floor")
		seed    = flag.Int64("seed", 1, "random seed")
	)
	flag.Parse()

	spec := experiments.DefaultEnvSpec()
	spec.Devices = *devices
	spec.Floors = *floors
	spec.Shops = *shops
	spec.Seed = *seed

	st := time.Now()
	env, err := experiments.NewEnv(spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("env: %d floors × %d shops, %d devices, %d raw records (setup %s)\n\n",
		spec.Floors, spec.Shops, spec.Devices, env.Raw.NumRecords(), time.Since(st).Round(time.Millisecond))

	type runner struct {
		id string
		fn func() (experiments.Report, error)
	}
	runners := []runner{
		{"e1", func() (experiments.Report, error) { return experiments.E1(env) }},
		{"e2", func() (experiments.Report, error) { return experiments.E2(env) }},
		{"e3", func() (experiments.Report, error) { return experiments.E3() }},
		{"e4a", func() (experiments.Report, error) { return experiments.E4a(env) }},
		{"e4b", func() (experiments.Report, error) { return experiments.E4b(env) }},
		{"e4c", func() (experiments.Report, error) { return experiments.E4c(env) }},
		{"e5", func() (experiments.Report, error) { return experiments.E5(env) }},
		{"e6", func() (experiments.Report, error) { return experiments.E6(env) }},
	}
	want := strings.ToLower(*exp)
	ran := 0
	for _, r := range runners {
		if want != "all" && !strings.HasPrefix(r.id, want) {
			continue
		}
		rep, err := r.fn()
		if err != nil {
			log.Fatalf("%s: %v", r.id, err)
		}
		fmt.Println(rep)
		ran++
	}
	if ran == 0 {
		log.Fatalf("unknown experiment %q (use e1..e6 or all)", *exp)
	}
}
