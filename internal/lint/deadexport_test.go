package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

var deadmod = filepath.Join("testdata", "src", "deadmod")

// TestDeadExport loads the deadmod fixture as a whole module: the uncalled
// function, method and self-recursive function are reported; a method
// value, fmt.Stringer, a fixture interface, an anonymous interface on the
// pointer type, generic instantiations, a facade-only caller and a
// consumed //trips:api are not.
func TestDeadExport(t *testing.T) {
	runFixtureIn(t, deadmod, []*Analyzer{NewDeadExport()}, false, "./...")
}

// TestDeadExportDirectives runs the full suite with directive validation
// over the whole fixture module: the //trips:api on a called function is
// stale and the one without a reason is malformed, both reported on the
// directive line.
func TestDeadExportDirectives(t *testing.T) {
	prog, err := Load(deadmod, "./...")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(prog, Analyzers(), true)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range diags {
		if d.Analyzer == "directive" {
			got = append(got, d.Message)
		}
	}
	want := []string{"unused //trips:api directive", "//trips:api needs a reason"}
	if len(got) != len(want) {
		t.Fatalf("directive diagnostics = %q, want %d", got, len(want))
	}
	for i := range want {
		if !strings.Contains(got[i], want[i]) {
			t.Errorf("directive diagnostic %d = %q, want it to contain %q", i, got[i], want[i])
		}
	}
}

// TestDeadExportPartialLoad: without the whole module every function would
// look uncalled, so a partial load reports nothing and treats every
// //trips:api, the stale one included, as consumed.
func TestDeadExportPartialLoad(t *testing.T) {
	for _, tc := range []struct {
		patterns []string
		whole    bool
	}{
		{[]string{"./..."}, true},
		{[]string{"deadmod/..."}, true},
		{[]string{"./internal/..."}, false},
		{[]string{"./internal/lib", "./internal/use"}, false},
	} {
		prog, err := Load(deadmod, tc.patterns...)
		if err != nil {
			t.Fatal(err)
		}
		if prog.Whole != tc.whole {
			t.Errorf("Load(%q).Whole = %v, want %v", tc.patterns, prog.Whole, tc.whole)
		}
	}
	prog, err := Load(deadmod, "./internal/lib", "./internal/use")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(prog, Analyzers(), true)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("partial load reported [%s] %s", d.Analyzer, d.Message)
	}
}
