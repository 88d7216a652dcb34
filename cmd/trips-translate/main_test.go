package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"trips/internal/config"
	"trips/internal/events"
	"trips/internal/position"
	"trips/internal/semantics"
	"trips/internal/simul"
)

// genInputs synthesizes a dataset + DSM + events on disk.
func genInputs(t *testing.T) (dsmPath, dataPath, eventsPath string) {
	t.Helper()
	dir := t.TempDir()
	m, err := simul.BuildMall(simul.MallSpec{Floors: 2, ShopsPerFloor: 4})
	if err != nil {
		t.Fatal(err)
	}
	dsmPath = filepath.Join(dir, "mall.json")
	if err := m.Save(dsmPath); err != nil {
		t.Fatal(err)
	}
	sim := simul.NewSim(m, 3)
	start := time.Date(2017, 1, 1, 11, 0, 0, 0, time.UTC)
	raw, truths, err := sim.Population(5, start, time.Hour, simul.DefaultErrorModel())
	if err != nil {
		t.Fatal(err)
	}
	dataPath = filepath.Join(dir, "raw.csv")
	if err := position.SaveFile(dataPath, raw); err != nil {
		t.Fatal(err)
	}
	ed := events.NewEditor()
	for _, es := range simul.TrainingSegments(raw, truths, 20) {
		for _, recs := range es.Segments {
			if err := ed.AddSegment(events.LabeledSegment{Event: es.Event, Device: recs[0].Device, Records: recs}); err != nil {
				t.Fatal(err)
			}
		}
	}
	eventsPath = filepath.Join(dir, "events.json")
	if err := ed.Save(eventsPath); err != nil {
		t.Fatal(err)
	}
	return dsmPath, dataPath, eventsPath
}

func TestAssembleConfig(t *testing.T) {
	cfg, err := assembleConfig("", "m.json", "d.csv", "e.json", "decision-tree", "3a.*", 10, 22)
	if err != nil {
		t.Fatalf("assembleConfig: %v", err)
	}
	if cfg.DSM != "m.json" || cfg.Annotator.Classifier != "decision-tree" {
		t.Errorf("config = %+v", cfg)
	}
	if cfg.Selector == nil || cfg.Selector.Kind != "and" || len(cfg.Selector.Children) != 2 {
		t.Errorf("selector = %+v", cfg.Selector)
	}
	// Missing mandatory paths.
	if _, err := assembleConfig("", "", "d.csv", "e.json", "", "", -1, -1); err == nil {
		t.Error("missing dsm accepted")
	}
	// Bad classifier.
	if _, err := assembleConfig("", "m", "d", "e", "svm", "", -1, -1); err == nil {
		t.Error("bad classifier accepted")
	}
}

func TestTranslateRunEndToEnd(t *testing.T) {
	dsmPath, dataPath, eventsPath := genInputs(t)
	out := t.TempDir()
	cfg, err := assembleConfig("", dsmPath, dataPath, eventsPath, "", "", -1, -1)
	if err != nil {
		t.Fatal(err)
	}
	if err := run(cfg, out); err != nil {
		t.Fatalf("run: %v", err)
	}
	raw, _ := position.LoadFile(dataPath)
	for _, dev := range raw.Devices() {
		data, err := os.ReadFile(filepath.Join(out, string(dev)+".json"))
		if err != nil {
			t.Fatalf("result for %s: %v", dev, err)
		}
		var seq semantics.Sequence
		if err := json.Unmarshal(data, &seq); err != nil {
			t.Fatalf("result for %s: %v", dev, err)
		}
		if seq.Len() == 0 {
			t.Errorf("%s: empty semantics", dev)
		}
	}
}

func TestTranslateRunWithConfigFile(t *testing.T) {
	dsmPath, dataPath, eventsPath := genInputs(t)
	dir := t.TempDir()
	doc := &config.Config{
		Name: "from-file", DSM: dsmPath, Dataset: dataPath, Events: eventsPath,
		Selector: &config.RuleConfig{Kind: "minRecords", MinCount: 10},
	}
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	cfgPath := filepath.Join(dir, "task.json")
	if err := os.WriteFile(cfgPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err := assembleConfig(cfgPath, "", "", "", "", "3a.*", -1, -1)
	if err != nil {
		t.Fatal(err)
	}
	// Flag rules wrap the file's selector.
	if cfg.Selector.Kind != "and" {
		t.Errorf("merged selector = %+v", cfg.Selector)
	}
	if err := run(cfg, filepath.Join(dir, "results")); err != nil {
		t.Fatalf("run: %v", err)
	}
}
