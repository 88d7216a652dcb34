package main

import (
	"os"
	"path/filepath"
	"testing"

	"trips/internal/dsm"
	"trips/internal/events"
	"trips/internal/position"
)

func TestGenRunProducesArtifacts(t *testing.T) {
	out := t.TempDir()
	if err := run(out, 2, 4, 5, 1, 2, 2.5, 0.03, 0.05, 0.006, 10); err != nil {
		t.Fatalf("run: %v", err)
	}
	// DSM loads and is frozen.
	m, err := dsm.Load(filepath.Join(out, "mall.json"))
	if err != nil {
		t.Fatalf("mall.json: %v", err)
	}
	if len(m.Floors()) != 2 {
		t.Errorf("floors = %d", len(m.Floors()))
	}
	// Raw dataset loads with the requested devices.
	raw, err := position.LoadFile(filepath.Join(out, "raw.csv"))
	if err != nil {
		t.Fatalf("raw.csv: %v", err)
	}
	if raw.NumDevices() != 5 {
		t.Errorf("devices = %d", raw.NumDevices())
	}
	// Truth per device.
	truthFiles, err := os.ReadDir(filepath.Join(out, "truth"))
	if err != nil || len(truthFiles) != 5 {
		t.Errorf("truth files = %d, %v", len(truthFiles), err)
	}
	// Events state loads with training segments.
	ed, err := events.Load(filepath.Join(out, "events.json"))
	if err != nil {
		t.Fatalf("events.json: %v", err)
	}
	if len(ed.TrainingSet().Segments) == 0 {
		t.Error("no training segments generated")
	}
}

func TestGenRunRejectsBadSpec(t *testing.T) {
	if err := run(t.TempDir(), 0, 4, 1, 1, 1, 2.5, 0, 0, 0, 5); err == nil {
		t.Error("zero floors accepted")
	}
}
