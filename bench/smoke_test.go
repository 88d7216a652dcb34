package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// TestSmokeAllWorkloads runs every workload end to end at a hundredth of
// its size, untraced and traced: every named metric must be there and
// finite, every end-to-end metric positive, no op failed.
func TestSmokeAllWorkloads(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				cfg := config{seed: 1, scale: 0.01, seconds: 0, par: 2, tmp: t.TempDir()}
				out, err := measure(w, &cfg, traced)
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				if out.failed != 0 || out.attempted < 1 {
					t.Errorf("traced=%v: %d of %d ops failed", traced, out.failed, out.attempted)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if len(out.metrics) != len(defs) {
					t.Errorf("traced=%v: %d metrics reported, %d defined", traced, len(out.metrics), len(defs))
				}
				for _, d := range defs {
					v, ok := out.metrics[d.name]
					switch {
					case !ok:
						t.Errorf("%s missing", d.name)
					case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
						t.Errorf("%s = %v", d.name, v.Value)
					case v.Unit != d.unit:
						t.Errorf("%s in %q, want %q", d.name, v.Unit, d.unit)
					case !traced && v.Value <= 0:
						t.Errorf("%s = %v, want positive", d.name, v.Value)
					}
				}
				if traced && len(out.spans) == 0 {
					t.Error("traced run recorded no spans")
				}
			}
		})
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json at the repository root in
// step with the tables here.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		RunSeconds float64                      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string } `json:"workloads"`
		EndToEnd   []metric                     `json:"end_to_end"`
		PerLayer   []metric                     `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != refSeconds {
		t.Errorf("run_seconds is %v, the repetition counts are sized for %v", doc.RunSeconds, refSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d defined", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q, want %q", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %q: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	same := func(kind string, listed []metric, defs []metricDef, bounded bool) {
		if len(listed) != len(defs) {
			t.Fatalf("%s: %d listed, %d defined", kind, len(listed), len(defs))
		}
		for i, m := range listed {
			d := defs[i]
			better := "lower"
			if d.higher {
				better = "higher"
			}
			if m.Name != d.name || m.Unit != d.unit || m.Better != better {
				t.Errorf("%s %d: %+v, want %s %s %s", kind, i, m, d.name, d.unit, better)
			}
			if bounded != (m.Bound != nil) || (bounded && *m.Bound != d.bound) {
				t.Errorf("%s %s: bound %v, want %v", kind, d.name, m.Bound, d.bound)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd, true)
	same("per_layer", doc.PerLayer, perLayer, false)
}
