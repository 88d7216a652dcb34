package loadgen

import (
	"strings"
	"testing"
)

// healthyRun is a plausible smoke-profile result.
func healthyRun() Results {
	return Results{
		RecordsSent:    1800,
		RecordsPerS:    9000,
		FreshnessP50S:  0.4,
		FreshnessP99S:  2.1,
		FreshnessCount: 35,
		HeapMaxBytes:   90 << 20,
	}
}

// TestGatePassesOnBaseline is the green path: a healthy run violates
// nothing, whatever its throughput, latency or heap read.
func TestGatePassesOnBaseline(t *testing.T) {
	if fails := Check(healthyRun()); len(fails) != 0 {
		t.Fatalf("healthy run failed the gate: %v", fails)
	}
}

// TestGateFailsOnRegression injects each hard-invariant breach separately
// and demands the gate names it.
func TestGateFailsOnRegression(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Results)
		expect string
	}{
		{"http errors", func(r *Results) { r.HTTPErrors = 3 }, "HTTP errors"},
		{"empty run", func(r *Results) { r.RecordsSent = 0 }, "measured nothing"},
		{"pipeline never completed", func(r *Results) { r.FreshnessCount = 0 }, "no freshness observations"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := healthyRun()
			tc.mutate(&res)
			fails := Check(res)
			if len(fails) == 0 {
				t.Fatalf("gate passed a run with %s", tc.name)
			}
			found := false
			for _, f := range fails {
				if strings.Contains(f, tc.expect) {
					found = true
				}
			}
			if !found {
				t.Errorf("failures %v never mention %q", fails, tc.expect)
			}
		})
	}
}
