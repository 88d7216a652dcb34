package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// selfCheck is the repeatability test the benchmark is accepted on, run by
// the benchmark itself: every workload n times in each of two interleaved
// sets (A B A B ...), run i of either set on seed cfg.seed+i, each run a
// fresh process as the driver's runs are. Per end-to-end metric it prints
// both medians, both interquartile ranges as a share of the median, and the
// gap between the medians next to the metric's bound. It reports false when
// a gap exceeds its bound, or a spread does on any metric but setup_s.
func selfCheck(n int, cfg *config) (ok bool, err error) {
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	ok = true
	fmt.Printf("selfcheck: %d runs per set, %g s each, seeds %d..%d, P=%d\n", n, cfg.seconds, cfg.seed, cfg.seed+int64(n)-1, cfg.par)
	for i := range workloads {
		w := &workloads[i]
		sets := [2]map[string][]float64{{}, {}}
		for run := 0; run < 2*n; run++ {
			set, seed := run%2, cfg.seed+int64(run/2)
			m, err := runOnce(self, w.name, seed, cfg)
			if err != nil {
				return false, fmt.Errorf("%s seed %d: %w", w.name, seed, err)
			}
			for name, v := range m {
				sets[set][name] = append(sets[set][name], v.Value)
			}
		}
		fmt.Printf("\n%s\n%-22s %14s %7s %14s %7s %8s %6s\n", w.name, "metric", "median A", "iqr A", "median B", "iqr B", "gap", "bound")
		for _, d := range endToEnd {
			a, b := sets[0][d.name], sets[1][d.name]
			ma, mb := median(a), median(b)
			// Positive gap = B worse than A, in the metric's own direction.
			gap := (mb - ma) / ma
			if d.higher {
				gap = -gap
			}
			verdict := ""
			if gap > d.bound || (d.name != "setup_s" && max(spread(a), spread(b)) > d.bound) {
				verdict, ok = "  FAIL", false
			}
			fmt.Printf("%-22s %14.4f %6.2f%% %14.4f %6.2f%% %+7.2f%% %5.0f%%%s\n",
				d.name, ma, 100*spread(a), mb, 100*spread(b), 100*gap, 100*d.bound, verdict)
		}
	}
	return ok, nil
}

// runOnce runs one workload once in a child process and returns the metrics
// of its result line.
func runOnce(self, workload string, seed int64, cfg *config) (map[string]value, error) {
	cmd := exec.Command(self,
		"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"-scale", strconv.FormatFloat(cfg.scale, 'g', -1, 64), "-tmp", cfg.tmp)
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
	var res struct {
		Failed  int              `json:"failed"`
		Metrics map[string]value `json:"metrics"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	if res.Failed != 0 {
		return nil, fmt.Errorf("%d ops failed", res.Failed)
	}
	return res.Metrics, nil
}
