package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestFullSuiteFixtures runs every analyzer plus directive validation over
// all the well-formed fixture packages at once: the union of the per-analyzer
// expectations must hold, with no cross-analyzer interference and no stale
// or malformed directive reports.
func TestFullSuiteFixtures(t *testing.T) {
	RunFixture(t, Analyzers(), true,
		"trips/internal/annotation",
		"trips/internal/util",
		"trips/internal/zfix",
		"trips/internal/online",
		"trips/internal/afix",
		"trips/internal/afixuse",
		"trips/internal/obs/trace",
		"trips/internal/cfix",
	)
}

// TestDirectiveValidation checks the malformed/stale directive reports on
// the dirfix package. These land on the directive comments themselves, so
// they are asserted programmatically instead of via // want comments.
func TestDirectiveValidation(t *testing.T) {
	prog, err := Load(filepath.Join("testdata", "src", "trips"), "trips/internal/dirfix")
	if err != nil {
		t.Fatalf("loading dirfix: %v", err)
	}
	diags, err := Run(prog, Analyzers(), true)
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}
	wantSubstrings := []string{
		"unknown directive //trips:bogus",
		"//trips:commutative needs a justification",
		`malformed //trips:allow "notananalyzer: some reason"`,
		"unused //trips:allow directive",
		"unused //trips:zeroalloc directive",
	}
	if len(diags) != len(wantSubstrings) {
		for _, d := range diags {
			t.Logf("got: [%s] %s", d.Analyzer, d.Message)
		}
		t.Fatalf("got %d diagnostics, want %d", len(diags), len(wantSubstrings))
	}
	for _, want := range wantSubstrings {
		found := false
		for _, d := range diags {
			if d.Analyzer == "directive" && strings.Contains(d.Message, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no directive diagnostic containing %q", want)
		}
	}
}

// TestAnalyzerNames pins the suite roster: CI flags and README docs refer to
// these names.
func TestAnalyzerNames(t *testing.T) {
	got := strings.Join(AnalyzerNames(), ",")
	want := "mapiter,zeroalloc,allocguard,wallclock,atomicfield,ctxvalue,deadexport"
	if got != want {
		t.Fatalf("AnalyzerNames() = %s, want %s", got, want)
	}
}
