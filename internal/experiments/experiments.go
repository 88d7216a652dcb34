// Package experiments implements the reproduction harness: one entry point
// per paper artifact (Table 1, Figures 1–6), each regenerating the
// artifact's content or measuring the behaviour it illustrates (E1–E6).
// cmd/trips-bench prints the reports; bench_test.go wraps the same entry
// points in testing.B.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"trips/internal/config"
	"trips/internal/core"
	"trips/internal/dsm"
	"trips/internal/events"
	"trips/internal/position"
	"trips/internal/semantics"
	"trips/internal/simul"
)

// Env is the shared experimental setup: a mall, a simulated population with
// ground truth, and a trained translator.
type Env struct {
	Model  *dsm.Model
	Sim    *simul.Sim
	Raw    *position.Dataset
	Truths map[position.DeviceID]simul.Truth
	Editor *events.Editor
	Trans  *core.Translator
}

// EnvSpec sizes the setup.
type EnvSpec struct {
	Floors, Shops, Devices int
	Seed                   int64
	Window                 time.Duration
	Errors                 simul.ErrorModel
	Classifier             string
}

// DefaultEnvSpec is a laptop-scale version of the paper's venue: 3 floors,
// 6 shops per floor, 20 devices over 4 hours.
func DefaultEnvSpec() EnvSpec {
	return EnvSpec{
		Floors: 3, Shops: 6, Devices: 20, Seed: 1,
		Window: 4 * time.Hour,
		Errors: simul.DefaultErrorModel(),
	}
}

// Start is the common simulation start instant (the paper dataset's first
// day, 2017-01-01, at opening time).
var Start = time.Date(2017, 1, 1, 10, 0, 0, 0, time.UTC)

// NewEnv builds the environment: generate, label, train.
func NewEnv(spec EnvSpec) (*Env, error) {
	model, err := simul.BuildMall(simul.MallSpec{Floors: spec.Floors, ShopsPerFloor: spec.Shops})
	if err != nil {
		return nil, err
	}
	sim := simul.NewSim(model, spec.Seed)
	raw, truths, err := sim.Population(spec.Devices, Start, spec.Window, spec.Errors)
	if err != nil {
		return nil, err
	}
	ed := events.NewEditor()
	for _, es := range simul.TrainingSegments(raw, truths, 40) {
		for _, recs := range es.Segments {
			if err := ed.AddSegment(events.LabeledSegment{Event: es.Event, Device: recs[0].Device, Records: recs}); err != nil {
				return nil, err
			}
		}
	}
	ac := config.AnnotatorConfig{Classifier: spec.Classifier}
	em, err := core.TrainEventModel(ed.TrainingSet(), ac)
	if err != nil {
		return nil, err
	}
	tr, err := core.NewTranslator(model, em, config.CleanerConfig{}, ac, config.ComplementorConfig{})
	if err != nil {
		return nil, err
	}
	return &Env{Model: model, Sim: sim, Raw: raw, Truths: truths, Editor: ed, Trans: tr}, nil
}

// Report is a printable experiment outcome: a title, column headers and
// rows — the "same rows/series the paper reports" contract.
type Report struct {
	ID    string
	Title string
	Notes []string
	Cols  []string
	Rows  [][]string
}

// String renders the report as an aligned text table.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "   %s\n", n)
	}
	widths := make([]int, len(r.Cols))
	for i, c := range r.Cols {
		widths[i] = len(c)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	line(r.Cols)
	line(dashes(widths))
	for _, row := range r.Rows {
		line(row)
	}
	return b.String()
}

func dashes(widths []int) []string {
	out := make([]string, len(widths))
	for i, w := range widths {
		out[i] = strings.Repeat("-", w)
	}
	return out
}

func f2(v float64) string      { return fmt.Sprintf("%.2f", v) }
func pc(v float64) string      { return fmt.Sprintf("%.1f%%", 100*v) }
func d(v time.Duration) string { return v.Round(time.Microsecond).String() }

// meanReport averages Compare over all devices of a result set.
func meanReport(results []core.Result, truths map[position.DeviceID]simul.Truth) semantics.MatchReport {
	var agg semantics.MatchReport
	n := 0
	for _, r := range results {
		truth, ok := truths[r.Device]
		if !ok {
			continue
		}
		rep := semantics.Compare(r.Final, truth.Semantics, 5*time.Second)
		agg.TimeAgreement += rep.TimeAgreement
		agg.EventAgreement += rep.EventAgreement
		agg.Precision += rep.Precision
		agg.Recall += rep.Recall
		agg.F1 += rep.F1
		n++
	}
	if n > 0 {
		agg.TimeAgreement /= float64(n)
		agg.EventAgreement /= float64(n)
		agg.Precision /= float64(n)
		agg.Recall /= float64(n)
		agg.F1 /= float64(n)
	}
	return agg
}
