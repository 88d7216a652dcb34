// Package core orchestrates the TRIPS Translator: it wires the Cleaning,
// Annotation and Complementing layers into the three-layer translation
// framework of paper Fig. 3 and runs it over selected positioning
// sequences, "without manual interventions".
//
// Translation is two-phase. Phase one cleans and annotates every device
// sequence independently (concurrently across devices). Phase two builds
// the prior mobility knowledge from all phase-one semantics — "by referring
// to other generated mobility semantics sequences" — and complements each
// sequence's gaps by MAP inference.
package core

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"trips/internal/annotation"
	"trips/internal/cleaning"
	"trips/internal/complement"
	"trips/internal/config"
	"trips/internal/dsm"
	"trips/internal/events"
	"trips/internal/position"
	"trips/internal/semantics"
)

// Result is the full translation output for one device, carrying every
// intermediate the Viewer can trace ("the input, output and intermediate
// data involved in the translation").
type Result struct {
	Device position.DeviceID

	Raw     *position.Sequence
	Cleaned *position.Sequence
	Clean   cleaning.Report

	// Original is the pre-complement semantics sequence.
	Original *semantics.Sequence
	// Final is the complemented semantics sequence.
	Final *semantics.Sequence
	// Inserted counts the inferred triplets added by the Complementor.
	Inserted int

	Conciseness semantics.Conciseness
}

// Translator is the configured three-layer pipeline.
type Translator struct {
	Model        *dsm.Model
	Cleaner      *cleaning.Cleaner
	Annotator    *annotation.Annotator
	Complementor *complement.Complementor // nil disables complementing
	// KnowledgeJoinGap is the gap threshold used when aggregating mobility
	// knowledge in phase two.
	KnowledgeJoinGap time.Duration
	// Workers bounds phase-one concurrency (default NumCPU).
	Workers int
}

// NewClassifier instantiates a classifier by config name; empty selects
// Gaussian naive Bayes.
func NewClassifier(name string) (annotation.Classifier, error) {
	switch name {
	case "", "gaussian-nb":
		return annotation.NewGaussianNB(), nil
	case "logistic-regression":
		return annotation.NewLogisticRegression(), nil
	case "decision-tree":
		return annotation.NewDecisionTree(), nil
	default:
		return nil, fmt.Errorf("core: unknown classifier %q", name)
	}
}

// TrainEventModel trains the identification model from Event Editor state
// using the configured classifier, deriving each segment's density feature
// under the configured splitting — the one the Translator annotates with.
func TrainEventModel(ts events.TrainingSet, ac config.AnnotatorConfig) (*annotation.EventModel, error) {
	clf, err := NewClassifier(ac.Classifier)
	if err != nil {
		return nil, err
	}
	return annotation.TrainEventModel(ts, clf, annotatorConfig(ac).Split)
}

// annotatorConfig maps the Configurator's annotator section onto the
// annotation layer's configuration; zero fields keep the defaults.
func annotatorConfig(ac config.AnnotatorConfig) annotation.Config {
	cfg := annotation.DefaultConfig()
	if ac.EpsSpaceM > 0 {
		cfg.Split.EpsSpace = ac.EpsSpaceM
	}
	if ac.EpsTimeS > 0 {
		cfg.Split.EpsTime = time.Duration(ac.EpsTimeS) * time.Second
	}
	if ac.MinPts > 0 {
		cfg.Split.MinPts = ac.MinPts
	}
	if ac.MaxGapS > 0 {
		cfg.Split.MaxGap = time.Duration(ac.MaxGapS) * time.Second
	}
	if ac.MinSnippet > 0 {
		cfg.Split.MinSnippet = ac.MinSnippet
	}
	if ac.Display != "" {
		cfg.Display = annotation.DisplayPolicy(ac.Display)
	}
	cfg.MinConfidence = ac.MinConfidence
	switch {
	case ac.MergeGapS > 0:
		cfg.MergeGap = time.Duration(ac.MergeGapS) * time.Second
	case ac.MergeGapS < 0:
		cfg.MergeGap = 0
	}
	return cfg
}

// NewTranslator builds the pipeline from the declarative configs.
func NewTranslator(m *dsm.Model, em *annotation.EventModel,
	cc config.CleanerConfig, ac config.AnnotatorConfig, xc config.ComplementorConfig) (*Translator, error) {
	if m == nil || !m.Frozen() {
		return nil, fmt.Errorf("core: translator needs a frozen DSM")
	}
	cl := cleaning.New(m)
	if cc.MaxSpeedMPS > 0 {
		cl.MaxSpeed = cc.MaxSpeedMPS
	}
	cl.UseEuclidean = cc.UseEuclidean

	tr := &Translator{
		Model:            m,
		Cleaner:          cl,
		Annotator:        annotation.NewAnnotator(m, em, annotatorConfig(ac)),
		KnowledgeJoinGap: 2 * time.Minute,
	}
	if !xc.Disabled {
		comp := complement.NewComplementor(m, nil)
		if xc.MaxGapS > 0 {
			comp.MaxGap = time.Duration(xc.MaxGapS) * time.Second
		}
		if xc.MaxHops > 0 {
			comp.MaxHops = xc.MaxHops
		}
		comp.UniformPrior = xc.UniformPrior
		tr.Complementor = comp
	}
	return tr, nil
}

// TranslateOne runs the pipeline on a single sequence using the given
// knowledge: the same per-sequence steps as Translate's two phases. Nil
// knowledge complements under the uniform topology prior.
func (t *Translator) TranslateOne(s *position.Sequence, know *complement.Knowledge) Result {
	r := t.annotate(s)
	t.complement(&r, know)
	return r
}

// annotate is phase one for one sequence: clean, then annotate.
func (t *Translator) annotate(s *position.Sequence) Result {
	r := Result{Device: s.Device, Raw: s}
	r.Cleaned, r.Clean = t.Cleaner.Clean(s)
	r.Original = t.Annotator.Annotate(r.Cleaned)
	return r
}

// complement is phase two for one result: fill its gaps under know (nil
// selects the uniform prior) when complementing is enabled, then measure
// the conciseness of the final sequence.
func (t *Translator) complement(r *Result, know *complement.Knowledge) {
	r.Final = r.Original
	if t.Complementor != nil {
		comp := *t.Complementor // copy so Know can vary per call
		comp.Know = know
		r.Final, r.Inserted = comp.Complement(r.Original)
	}
	r.Conciseness = measure(r.Raw, r.Final)
}

// Translate runs the full two-phase pipeline over a dataset and returns one
// result per device, in device order.
func (t *Translator) Translate(ds *position.Dataset) []Result {
	seqs := ds.Sequences()
	results := make([]Result, len(seqs))

	// Phase one: clean + annotate concurrently.
	workers := t.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(seqs) {
		workers = len(seqs)
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				results[i] = t.annotate(seqs[i])
			}
		}()
	}
	for i := range seqs {
		work <- i
	}
	close(work)
	wg.Wait()

	// Phase two: knowledge construction over all originals, then
	// per-sequence complementing.
	var know *complement.Knowledge
	if t.Complementor != nil {
		all := make([]*semantics.Sequence, 0, len(results))
		for i := range results {
			all = append(all, results[i].Original)
		}
		know = complement.BuildKnowledge(t.Model, all, t.KnowledgeJoinGap)
	}
	for i := range results {
		t.complement(&results[i], know)
	}
	return results
}

// ResultSink consumes finalized translation results — the backend side of
// paper Sec. 4, where results are "stored in the backend for the reuse in
// other translation tasks". The trip warehouse (internal/tripstore)
// implements it.
type ResultSink interface {
	IngestResult(Result) error
}

// MultiSink fans every result to each sink in order, stopping on the first
// error. Nil sinks are skipped; with zero or one effective sink it degrades
// to that sink (so TranslateTo's nil fast path still applies). It lets one
// translation feed the warehouse and the analytics views in one pass.
//
//trips:api bench/ is a separate module and calls it
func MultiSink(sinks ...ResultSink) ResultSink {
	eff := make(multiSink, 0, len(sinks))
	for _, s := range sinks {
		if s != nil {
			eff = append(eff, s)
		}
	}
	switch len(eff) {
	case 0:
		return nil
	case 1:
		return eff[0]
	default:
		return eff
	}
}

type multiSink []ResultSink

// IngestResult implements ResultSink.
func (m multiSink) IngestResult(r Result) error {
	for _, s := range m {
		if err := s.IngestResult(r); err != nil {
			return err
		}
	}
	return nil
}

// TranslateTo runs the full two-phase pipeline and forwards every result
// to the sink before returning them. A nil sink degrades to Translate.
func (t *Translator) TranslateTo(ds *position.Dataset, sink ResultSink) ([]Result, error) {
	results := t.Translate(ds)
	if sink == nil {
		return results, nil
	}
	for _, r := range results {
		if err := sink.IngestResult(r); err != nil {
			return results, fmt.Errorf("core: ingest result for %s: %w", r.Device, err)
		}
	}
	return results, nil
}

// measure computes the conciseness of translating raw into sem, using the
// CSV encoding size of the raw records as the baseline byte count.
func measure(raw *position.Sequence, sem *semantics.Sequence) semantics.Conciseness {
	// ≈58 bytes per CSV row (device,x,y,floor,RFC3339ms) — close enough
	// for a ratio without re-encoding every sequence.
	const rawRowBytes = 58
	return semantics.MeasureConciseness(raw.Len(), raw.Len()*rawRowBytes, sem)
}
