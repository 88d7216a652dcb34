package loadgen

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// File is the BENCH_system.json schema: run metadata (what machine, what
// commit, what profile) plus the measured Results.
type File struct {
	Suite      string  `json:"suite"` // always "system"
	Go         string  `json:"go"`
	Cpus       int     `json:"cpus"`
	Gomaxprocs int     `json:"gomaxprocs"`
	Commit     string  `json:"commit,omitempty"`
	Timestamp  string  `json:"timestamp"`
	Config     Profile `json:"config"`
	Results    Results `json:"results"`
}

// NewFile frames a run's results with the environment metadata that makes
// two artifacts comparable.
func NewFile(p Profile, res Results) *File {
	return &File{
		Suite:      "system",
		Go:         runtime.Version(),
		Cpus:       runtime.NumCPU(),
		Gomaxprocs: runtime.GOMAXPROCS(0),
		Commit:     benchCommit(),
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		Config:     p,
		Results:    res,
	}
}

// benchCommit resolves the commit the numbers describe: git first, the CI
// environment as fallback for builds from an exported tree.
func benchCommit() string {
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return os.Getenv("GITHUB_SHA")
}

// Write serializes the report to path.
func (f *File) Write(path string) error {
	out, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// ReadFile loads a previously written report (the -check baseline).
func ReadFile(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("loadgen: parse %s: %w", path, err)
	}
	if f.Suite != "system" {
		return nil, fmt.Errorf("loadgen: %s is a %q artifact, want suite \"system\"", path, f.Suite)
	}
	return &f, nil
}
