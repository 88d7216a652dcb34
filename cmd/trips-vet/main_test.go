package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildVet compiles the trips-vet binary once per test run.
func buildVet(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "trips-vet")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// scratchModule writes a throwaway module named trips (the scope maps key on
// real import paths) whose internal/annotation package holds the given
// source, and returns its root.
func scratchModule(t *testing.T, src string) string {
	t.Helper()
	root := t.TempDir()
	pkg := filepath.Join(root, "internal", "annotation")
	if err := os.MkdirAll(pkg, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "go.mod"), []byte("module trips\n\ngo 1.24\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(pkg, "annotate.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return root
}

// The PR-1 bug, reduced: refineByRegion's output order follows map
// iteration, which made Annotate's labels nondeterministic across runs.
const buggyRefine = `package annotation

type RegionID string

func refineByRegion(votes map[RegionID]int) []RegionID {
	var out []RegionID
	for r := range votes {
		out = append(out, r)
	}
	return out
}
`

// The shipped fix: collect (justified), then sort.
const fixedRefine = `package annotation

import "sort"

type RegionID string

func refineByRegion(votes map[RegionID]int) []RegionID {
	out := make([]RegionID, 0, len(votes))
	//trips:commutative key collection; iteration order is erased by the sort below
	for r := range votes {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
`

// TestVetCatchesReintroducedMapOrderBug is the end-to-end gate check: a
// module that reintroduces the PR-1 refineByRegion map-range bug must make
// trips-vet exit non-zero with a mapiter diagnostic, and the sorted
// variant must pass clean — including directive validation.
func TestVetCatchesReintroducedMapOrderBug(t *testing.T) {
	bin := buildVet(t)

	buggy := scratchModule(t, buggyRefine)
	out, err := exec.Command(bin, "-C", buggy, "-stdvet=false", "./...").CombinedOutput()
	if err == nil {
		t.Fatalf("trips-vet passed the reintroduced map-order bug:\n%s", out)
	}
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Fatalf("trips-vet: %v (want exit code 1)\n%s", err, out)
	}
	if !strings.Contains(string(out), "[mapiter]") || !strings.Contains(string(out), "range over map votes") {
		t.Fatalf("diagnostic does not name the bug:\n%s", out)
	}

	fixed := scratchModule(t, fixedRefine)
	out, err = exec.Command(bin, "-C", fixed, "-stdvet=false", "./...").CombinedOutput()
	if err != nil {
		t.Fatalf("trips-vet rejected the fixed module: %v\n%s", err, out)
	}
	if strings.TrimSpace(string(out)) != "" {
		t.Fatalf("unexpected output on clean module:\n%s", out)
	}
}

// TestVetListsRoster pins the analyzer roster the CI gate advertises.
func TestVetListsRoster(t *testing.T) {
	bin := buildVet(t)
	out, err := exec.Command(bin, "-list").CombinedOutput()
	if err != nil {
		t.Fatalf("trips-vet -list: %v\n%s", err, out)
	}
	for _, name := range []string{"mapiter", "zeroalloc", "allocguard", "wallclock", "atomicfield", "ctxvalue", "deadexport"} {
		if !strings.Contains(string(out), name) {
			t.Errorf("roster missing %s:\n%s", name, out)
		}
	}
}
