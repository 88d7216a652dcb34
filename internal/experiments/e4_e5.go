package experiments

import (
	"fmt"
	"time"

	"trips/internal/annotation"
	"trips/internal/cleaning"
	"trips/internal/complement"
	"trips/internal/config"
	"trips/internal/core"
	"trips/internal/dsm"
	"trips/internal/events"
	"trips/internal/position"
	"trips/internal/semantics"
	"trips/internal/simul"
	"trips/internal/viewer"
)

// E4a sweeps the error model and measures the Cleaning layer: mean planar
// error and floor accuracy before vs after cleaning, including the
// Euclidean-speed ablation.
func E4a(env *Env) (Report, error) {
	out := Report{
		ID:    "E4a",
		Title: "Figure 3 (cleaning layer) — repair quality across error levels",
		Cols: []string{"noise σ", "floor err", "outliers", "pos err before", "pos err after",
			"floor acc before", "floor acc after", "repairs"},
	}
	cases := []simul.ErrorModel{
		{NoiseSigma: 1.0, FloorErrProb: 0.01, OutlierProb: 0.02, MinPeriod: 3 * time.Second, MaxPeriod: 8 * time.Second},
		{NoiseSigma: 2.5, FloorErrProb: 0.03, OutlierProb: 0.05, MinPeriod: 3 * time.Second, MaxPeriod: 8 * time.Second},
		{NoiseSigma: 4.0, FloorErrProb: 0.08, OutlierProb: 0.10, MinPeriod: 3 * time.Second, MaxPeriod: 8 * time.Second},
	}
	for _, em := range cases {
		row, err := cleaningRow(env, em, false)
		if err != nil {
			return out, err
		}
		out.Rows = append(out.Rows, row)
	}
	// Ablation: Euclidean speed check at the middle error level.
	row, err := cleaningRow(env, cases[1], true)
	if err != nil {
		return out, err
	}
	row[0] += " (euclid)"
	out.Rows = append(out.Rows, row)
	out.Notes = []string{
		"euclid = ablation: speed check on straight-line distance instead of indoor walking distance;",
		"it repairs fewer records (wall-crossing errors pass) — see the repairs column.",
	}
	return out, nil
}

func cleaningRow(env *Env, em simul.ErrorModel, euclid bool) ([]string, error) {
	// Fresh devices under this error model, reusing the env's venue.
	sim := simul.NewSim(env.Model, 99)
	raw, truths, err := sim.Population(8, Start, 2*time.Hour, em)
	if err != nil {
		return nil, err
	}
	cl := cleaning.New(env.Model)
	cl.UseEuclidean = euclid
	var errBefore, errAfter float64
	var flBeforeOK, flAfterOK, n, repairs int
	// Devices in sorted order: the error sums are floating-point, so the
	// accumulation order must not depend on map iteration or the reported
	// table wobbles in its last digits across runs.
	for _, dev := range raw.Devices() {
		truth, ok := truths[dev]
		if !ok {
			continue
		}
		seq := raw.Sequence(dev)
		cleaned, rep := cl.Clean(seq)
		repairs += rep.Modified()
		for i, r := range seq.Records {
			tr := truthAtTime(truth.Records, r.At)
			errBefore += r.P.Dist(tr.P)
			errAfter += cleaned.Records[i].P.Dist(tr.P)
			if r.Floor == tr.Floor {
				flBeforeOK++
			}
			if cleaned.Records[i].Floor == tr.Floor {
				flAfterOK++
			}
			n++
		}
	}
	fn := float64(n)
	return []string{
		fmt.Sprintf("%.1f", em.NoiseSigma), pc(em.FloorErrProb), pc(em.OutlierProb),
		fmt.Sprintf("%.2f m", errBefore/fn), fmt.Sprintf("%.2f m", errAfter/fn),
		pc(float64(flBeforeOK) / fn), pc(float64(flAfterOK) / fn),
		fmt.Sprint(repairs),
	}, nil
}

// truthAtTime binary-searches the dense truth trace.
func truthAtTime(s *position.Sequence, t time.Time) position.Record {
	recs := s.Records
	lo, hi := 0, len(recs)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if recs[mid].At.Before(t) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo > 0 && t.Sub(recs[lo-1].At) < recs[lo].At.Sub(t) {
		return recs[lo-1]
	}
	return recs[lo]
}

// E4b measures the Annotation layer: event identification cross-validation
// accuracy for each of the three classifiers, and end-to-end agreement per
// classifier.
func E4b(env *Env) (Report, error) {
	out := Report{
		ID:    "E4b",
		Title: "Figure 3 (annotation layer) — event identification models",
		Cols:  []string{"classifier", "5-fold accuracy", "time agreement", "event agreement", "F1"},
	}
	// Shared design matrix from the editor's training set.
	ts := env.Editor.TrainingSet()
	var X [][]float64
	var y []int
	labels := map[semantics.Event]int{semantics.EventPassBy: 0, semantics.EventStay: 1}
	for _, seg := range ts.Segments {
		lbl, ok := labels[seg.Event]
		if !ok {
			continue
		}
		X = append(X, annotation.FeaturizeRecords(seg.Records, false))
		y = append(y, lbl)
	}
	sc := annotation.FitScaler(X)
	Z := sc.TransformAll(X)

	for _, name := range []string{"gaussian-nb", "logistic-regression", "decision-tree"} {
		mk := func() annotation.Classifier {
			c, _ := core.NewClassifier(name)
			return c
		}
		acc, err := annotation.CrossValidate(mk, Z, y, 5)
		if err != nil {
			return out, err
		}
		// End-to-end with this classifier.
		em, err := core.TrainEventModel(ts, config.AnnotatorConfig{Classifier: name})
		if err != nil {
			return out, err
		}
		tr, err := core.NewTranslator(env.Model, em, config.CleanerConfig{}, config.AnnotatorConfig{}, config.ComplementorConfig{})
		if err != nil {
			return out, err
		}
		results := tr.Translate(env.Raw)
		rep := meanReport(results, env.Truths)
		out.Rows = append(out.Rows, []string{
			name, pc(acc), pc(rep.TimeAgreement), pc(rep.EventAgreement), f2(rep.F1),
		})
	}
	out.Notes = []string{fmt.Sprintf("%d labeled segments", len(X))}
	return out, nil
}

// E4c measures the Complementing layer: inject dropouts of growing length
// into the observations and count how many vanished region visits the MAP
// inference recovers, learned prior vs uniform-prior ablation.
func E4c(env *Env) (Report, error) {
	out := Report{
		ID:    "E4c",
		Title: "Figure 3 (complementing layer) — gap recovery by MAP inference",
		Cols:  []string{"dropout", "gaps", "recovered (learned)", "recovered (uniform)"},
	}
	// Build knowledge from the whole population's annotations.
	results := env.Trans.Translate(env.Raw)
	var all []*semantics.Sequence
	for _, r := range results {
		all = append(all, r.Original)
	}
	know := complement.BuildKnowledge(env.Model, all, env.Trans.KnowledgeJoinGap)

	for _, drop := range []time.Duration{3 * time.Minute, 6 * time.Minute, 10 * time.Minute} {
		gaps, recL, recU := 0, 0, 0
		for _, r := range results {
			seq := r.Original
			// Drop each interior triplet in turn and check whether the
			// complementor re-infers its region within the gap. Only gaps
			// whose surviving endpoints name DIFFERENT regions qualify:
			// region-path inference between a region and itself has no
			// interior by construction (the paper's Complementor likewise
			// infers "between two semantic regions").
			for i := 1; i < seq.Len()-1; i++ {
				victim := seq.Triplets[i]
				if victim.RegionID == "" || victim.Duration() > drop {
					continue
				}
				prev, next := seq.Triplets[i-1], seq.Triplets[i+1]
				if prev.RegionID == "" || next.RegionID == "" || prev.RegionID == next.RegionID {
					continue
				}
				reduced := dropTriplet(seq, i)
				gaps++
				if recovers(env.Model, know, false, reduced, victim) {
					recL++
				}
				if recovers(env.Model, know, true, reduced, victim) {
					recU++
				}
			}
		}
		rateL, rateU := "n/a", "n/a"
		if gaps > 0 {
			rateL = pc(float64(recL) / float64(gaps))
			rateU = pc(float64(recU) / float64(gaps))
		}
		out.Rows = append(out.Rows, []string{drop.String(), fmt.Sprint(gaps), rateL, rateU})
	}
	out.Notes = []string{
		"each interior observed triplet shorter than the dropout and flanked by two",
		"distinct regions is removed; the Complementor must re-infer its region.",
		"uniform = topology-only prior ablation (route choice unguided by knowledge).",
	}
	return out, nil
}

func dropTriplet(s *semantics.Sequence, i int) *semantics.Sequence {
	out := semantics.NewSequence(s.Device)
	for j, t := range s.Triplets {
		if j != i {
			out.Append(t)
		}
	}
	return out
}

func recovers(m *dsm.Model, know *complement.Knowledge, uniform bool, reduced *semantics.Sequence, victim semantics.Triplet) bool {
	comp := complement.NewComplementor(m, know)
	comp.MaxGap = 30 * time.Second // the synthetic gap must qualify
	comp.UniformPrior = uniform
	filled, _ := comp.Complement(reduced)
	for _, t := range filled.Triplets {
		if t.Inferred && t.RegionID == victim.RegionID && t.Overlaps(victim.From, victim.To) {
			return true
		}
	}
	return false
}

// E5 measures Figure 4: the cost of the unified visualization — SVG map and
// timeline rendering time and output size versus sequence length.
func E5(env *Env) (Report, error) {
	out := Report{
		ID:    "E5",
		Title: "Figure 4 — unified rendering of the four mobility data sequences",
		Cols:  []string{"records", "sources", "map svg", "timeline svg", "render time"},
	}
	devs := env.Raw.Devices()
	if len(devs) == 0 {
		return out, fmt.Errorf("e5: empty dataset")
	}
	for _, count := range []int{100, 500, 2000} {
		// Concatenate device data until count records are available.
		seq := position.NewSequence("e5")
		for _, dev := range devs {
			for _, r := range env.Raw.Sequence(dev).Records {
				if seq.Len() >= count {
					break
				}
				rr := r
				rr.Device = "e5"
				seq.Append(rr)
			}
			if seq.Len() >= count {
				break
			}
		}
		res := env.Trans.TranslateOne(seq, nil)
		v := viewer.NewView(env.Model)
		v.SetSource(viewer.SourceRaw, viewer.FromPositioning(viewer.SourceRaw, res.Raw))
		v.SetSource(viewer.SourceCleaned, viewer.FromPositioning(viewer.SourceCleaned, res.Cleaned))
		v.SetSource(viewer.SourceSemantics, viewer.FromSemantics(res.Final))
		st := time.Now()
		mapSVG := viewer.RenderSVG(v, viewer.RenderOptions{})
		tlSVG := viewer.RenderTimelineSVG(v, 900)
		el := time.Since(st)
		out.Rows = append(out.Rows, []string{
			fmt.Sprint(seq.Len()), fmt.Sprint(len(v.Sources())),
			fmt.Sprintf("%d KB", len(mapSVG)/1024),
			fmt.Sprintf("%d KB", len(tlSVG)/1024),
			d(el),
		})
	}
	return out, nil
}

// Keep events import used (training-set types appear in E4b signature docs).
var _ events.TrainingSet
