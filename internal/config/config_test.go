package config

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func TestRuleConfigBuildLeaves(t *testing.T) {
	cases := []struct {
		rc   RuleConfig
		want string // substring of Describe()
	}{
		{RuleConfig{Kind: "device", Glob: "3a.*"}, "3a.*"},
		{RuleConfig{Kind: "timeRange"}, "time in"},
		{RuleConfig{Kind: "dailyWindow", StartHour: 10, EndHour: 22}, "10:00"},
		{RuleConfig{Kind: "spatial", MaxX: 10, MaxY: 10, Floor: 1}, "records in"},
		{RuleConfig{Kind: "minDuration", Seconds: 3600}, "duration"},
		{RuleConfig{Kind: "frequency", Seconds: 10}, "period"},
		{RuleConfig{Kind: "minRecords", MinCount: 5}, "records"},
		{RuleConfig{Kind: "periodic", Days: 2}, "days"},
		{RuleConfig{Kind: "all"}, "all"},
		{RuleConfig{}, "all"},
	}
	for _, c := range cases {
		r, err := c.rc.Build()
		if err != nil {
			t.Errorf("Build(%q): %v", c.rc.Kind, err)
			continue
		}
		if !strings.Contains(r.Describe(), c.want) {
			t.Errorf("Build(%q).Describe() = %q, want ~%q", c.rc.Kind, r.Describe(), c.want)
		}
	}
	// Nil receiver → All.
	var nilRC *RuleConfig
	r, err := nilRC.Build()
	if err != nil || r.Describe() != "all" {
		t.Errorf("nil rule = %v, %v", r, err)
	}
}

func TestRuleConfigBuildTree(t *testing.T) {
	rc := RuleConfig{Kind: "and", Children: []RuleConfig{
		{Kind: "device", Glob: "3a.*"},
		{Kind: "or", Children: []RuleConfig{
			{Kind: "minRecords", MinCount: 10},
			{Kind: "not", Children: []RuleConfig{{Kind: "periodic", Days: 2}}},
		}},
	}}
	r, err := rc.Build()
	if err != nil {
		t.Fatalf("Build tree: %v", err)
	}
	d := r.Describe()
	for _, want := range []string{"AND", "OR", "NOT"} {
		if !strings.Contains(d, want) {
			t.Errorf("tree describe %q missing %q", d, want)
		}
	}
}

func TestRuleConfigBuildErrors(t *testing.T) {
	bad := []RuleConfig{
		{Kind: "quantum"},
		{Kind: "and"},
		{Kind: "or"},
		{Kind: "not"},
		{Kind: "not", Children: []RuleConfig{{Kind: "all"}, {Kind: "all"}}},
		{Kind: "dailyWindow", StartHour: 22, EndHour: 10},
		{Kind: "and", Children: []RuleConfig{{Kind: "quantum"}}},
	}
	for _, rc := range bad {
		if _, err := rc.Build(); err == nil {
			t.Errorf("rule %+v accepted", rc)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	ok := Config{Name: "task"}
	if err := ok.Validate(); err != nil {
		t.Errorf("minimal config rejected: %v", err)
	}
	if err := (&Config{}).Validate(); err == nil {
		t.Error("empty name accepted")
	}
	if err := (&Config{Name: "x", Annotator: AnnotatorConfig{Classifier: "svm"}}).Validate(); err == nil {
		t.Error("unknown classifier accepted")
	}
	if err := (&Config{Name: "x", Annotator: AnnotatorConfig{Display: "hologram"}}).Validate(); err == nil {
		t.Error("unknown display accepted")
	}
	if err := (&Config{Name: "x", Selector: &RuleConfig{Kind: "nope"}}).Validate(); err == nil {
		t.Error("bad selector accepted")
	}
}

func TestConfigRoundTrip(t *testing.T) {
	c := &Config{
		Name:    "mall-task",
		Dataset: "/data/raw.csv",
		DSM:     "/data/mall.json",
		Events:  "/data/events.json",
		Selector: &RuleConfig{Kind: "and", Children: []RuleConfig{
			{Kind: "dailyWindow", StartHour: 10, EndHour: 22},
			{Kind: "minRecords", MinCount: 20},
		}},
		Cleaner:      CleanerConfig{MaxSpeedMPS: 2.8},
		Annotator:    AnnotatorConfig{Classifier: "decision-tree", Display: "spatial-central"},
		Complementor: ComplementorConfig{MaxGapS: 240, MaxHops: 6},
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(c); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got.Name != c.Name || got.Cleaner.MaxSpeedMPS != 2.8 ||
		got.Annotator.Classifier != "decision-tree" || got.Complementor.MaxGapS != 240 {
		t.Errorf("round trip = %+v", got)
	}
	if len(got.Selector.Children) != 2 {
		t.Errorf("selector children = %d", len(got.Selector.Children))
	}
}

func TestReadRejectsUnknownFieldsAndGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader(`{"name":"x","warp":9}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := Read(strings.NewReader(`{{{`)); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Read(strings.NewReader(`{"name":""}`)); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestConfigLoad(t *testing.T) {
	dir := t.TempDir()
	c := &Config{
		Name:     "t",
		Dataset:  dir + "/raw.csv",
		Selector: &RuleConfig{Kind: "device", Glob: "3a.*"},
	}
	raw, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	cfgPath := dir + "/task.json"
	if err := os.WriteFile(cfgPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(cfgPath)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if loaded.Dataset != c.Dataset || loaded.Selector.Glob != "3a.*" {
		t.Errorf("loaded %+v", loaded)
	}
	if _, err := Load(dir + "/missing.json"); err == nil {
		t.Error("missing config accepted")
	}
}
