package core

import (
	"reflect"
	"testing"
	"time"

	"trips/internal/annotation"
	"trips/internal/config"
	"trips/internal/events"
	"trips/internal/position"
	"trips/internal/semantics"
	"trips/internal/simul"
)

var t0 = time.Date(2017, 1, 2, 10, 0, 0, 0, time.UTC)

// fixture builds a small mall, a simulated population with ground truth,
// and a trained event model — the full substrate for pipeline tests.
type fixture struct {
	sim    *simul.Sim
	ds     *position.Dataset
	truths map[position.DeviceID]simul.Truth
	ts     events.TrainingSet
	tr     *Translator
}

func newFixture(t testing.TB, devices int) *fixture {
	t.Helper()
	m, err := simul.BuildMall(simul.MallSpec{Floors: 2, ShopsPerFloor: 4})
	if err != nil {
		t.Fatal(err)
	}
	sim := simul.NewSim(m, 12345)
	ds, truths, err := sim.Population(devices, t0, time.Hour, simul.DefaultErrorModel())
	if err != nil {
		t.Fatal(err)
	}
	// Event training data derived from ground truth (the Event Editor
	// designation, done programmatically).
	ed := events.NewEditor()
	for _, es := range simul.TrainingSegments(ds, truths, 12) {
		for _, recs := range es.Segments {
			if err := ed.AddSegment(events.LabeledSegment{Event: es.Event, Device: recs[0].Device, Records: recs}); err != nil {
				t.Fatal(err)
			}
		}
	}
	em, err := TrainEventModel(ed.TrainingSet(), config.AnnotatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTranslator(m, em, config.CleanerConfig{}, config.AnnotatorConfig{}, config.ComplementorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{sim: sim, ds: ds, truths: truths, ts: ed.TrainingSet(), tr: tr}
}

// TestTrainEventModelUsesConfiguredSplit: the Configurator's density
// parameters reach training, so the dense_frac feature is learned under the
// splitting the Translator annotates with — not under the defaults.
func TestTrainEventModelUsesConfiguredSplit(t *testing.T) {
	f := newFixture(t, 12)
	ac := config.AnnotatorConfig{EpsSpaceM: 1.5, MinPts: 6}
	custom, err := TrainEventModel(f.ts, ac)
	if err != nil {
		t.Fatal(err)
	}
	def, err := TrainEventModel(f.ts, config.AnnotatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(custom, def) {
		t.Error("a custom density configuration trained the default-configuration model")
	}
	split := annotation.DefaultSplitConfig()
	split.EpsSpace, split.MinPts = 1.5, 6
	explicit, err := annotation.TrainEventModel(f.ts, annotation.NewGaussianNB(), split)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(custom, explicit) {
		t.Error("the configured model differs from one trained with the same split passed explicitly")
	}
	same, err := annotation.TrainEventModel(f.ts, annotation.NewGaussianNB(), annotation.DefaultSplitConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(def, same) {
		t.Error("the default configuration no longer trains the default-split model")
	}
}

func TestNewTranslatorValidation(t *testing.T) {
	if _, err := NewTranslator(nil, nil, config.CleanerConfig{}, config.AnnotatorConfig{}, config.ComplementorConfig{}); err == nil {
		t.Error("nil model accepted")
	}
}

func TestNewClassifier(t *testing.T) {
	for _, name := range []string{"", "gaussian-nb", "logistic-regression", "decision-tree"} {
		if _, err := NewClassifier(name); err != nil {
			t.Errorf("NewClassifier(%q): %v", name, err)
		}
	}
	if _, err := NewClassifier("svm"); err == nil {
		t.Error("unknown classifier accepted")
	}
}

func TestTranslateEndToEnd(t *testing.T) {
	f := newFixture(t, 6)
	results := f.tr.Translate(f.ds)
	if len(results) != 6 {
		t.Fatalf("results = %d", len(results))
	}
	devs := f.ds.Devices()
	for i, r := range results {
		if r.Device != devs[i] {
			t.Errorf("result %d device = %s, want %s (order)", i, r.Device, devs[i])
		}
		if r.Cleaned == nil || r.Cleaned.Len() != r.Raw.Len() {
			t.Errorf("%s: cleaned length %d vs raw %d", r.Device, r.Cleaned.Len(), r.Raw.Len())
		}
		if r.Original == nil || r.Final == nil {
			t.Fatalf("%s: missing semantics", r.Device)
		}
		if r.Final.Len() < r.Original.Len() {
			t.Errorf("%s: complementing removed triplets", r.Device)
		}
		if r.Final.Len() != r.Original.Len()+r.Inserted {
			t.Errorf("%s: inserted accounting %d + %d != %d", r.Device,
				r.Original.Len(), r.Inserted, r.Final.Len())
		}
		// Conciseness: triplets are far fewer than records.
		if r.Conciseness.RecordsPerTriplet < 2 {
			t.Errorf("%s: conciseness %.1f records/triplet", r.Device, r.Conciseness.RecordsPerTriplet)
		}
	}
}

func TestTranslateQualityAgainstTruth(t *testing.T) {
	f := newFixture(t, 8)
	results := f.tr.Translate(f.ds)
	var agg float64
	n := 0
	for _, r := range results {
		truth := f.truths[r.Device]
		rep := semantics.Compare(r.Final, truth.Semantics, 5*time.Second)
		agg += rep.TimeAgreement
		n++
	}
	mean := agg / float64(n)
	// With σ=2.5 m noise on 10 m shops the region-level agreement should
	// be solidly above chance (9 regions/floor → chance ≈ 0.11).
	if mean < 0.5 {
		t.Errorf("mean time agreement = %.2f, want ≥ 0.5", mean)
	}
}

func TestTranslateOneMatchesPipeline(t *testing.T) {
	f := newFixture(t, 3)
	dev := f.ds.Devices()[0]
	seq := f.ds.Sequence(dev)
	res := f.tr.TranslateOne(seq, nil)
	if res.Device != dev || res.Final == nil {
		t.Fatalf("TranslateOne = %+v", res)
	}
	if res.Original.Len() == 0 {
		t.Error("no semantics from TranslateOne")
	}
}

func TestTranslateComplementorDisabled(t *testing.T) {
	m, err := simul.BuildMall(simul.MallSpec{Floors: 1, ShopsPerFloor: 4})
	if err != nil {
		t.Fatal(err)
	}
	f := newFixture(t, 3)
	_ = m
	tr, err := NewTranslator(f.tr.Model, f.tr.Annotator.Events,
		config.CleanerConfig{}, config.AnnotatorConfig{}, config.ComplementorConfig{Disabled: true})
	if err != nil {
		t.Fatal(err)
	}
	results := tr.Translate(f.ds)
	for _, r := range results {
		if r.Inserted != 0 {
			t.Errorf("%s: disabled complementor inserted %d", r.Device, r.Inserted)
		}
		if r.Final.Len() != r.Original.Len() {
			t.Errorf("%s: final differs with complementor disabled", r.Device)
		}
	}
}

func TestTranslateWorkersDeterministic(t *testing.T) {
	f := newFixture(t, 5)
	f.tr.Workers = 1
	serial := f.tr.Translate(f.ds)
	f.tr.Workers = 4
	parallel := f.tr.Translate(f.ds)
	if len(serial) != len(parallel) {
		t.Fatal("result count differs")
	}
	for i := range serial {
		a, b := serial[i], parallel[i]
		if a.Device != b.Device || a.Final.Len() != b.Final.Len() || a.Clean.Modified() != b.Clean.Modified() {
			t.Errorf("device %s: serial and parallel runs differ (%d vs %d triplets)",
				a.Device, a.Final.Len(), b.Final.Len())
		}
	}
}

func TestTranslateEmptyDataset(t *testing.T) {
	f := newFixture(t, 2)
	if got := f.tr.Translate(position.NewDataset()); len(got) != 0 {
		t.Errorf("empty dataset yields %d results", len(got))
	}
}
