package trips

// Benchmarks, one per paper artifact (experiments E1–E6) plus the E4
// ablation benches. The same workloads back cmd/trips-bench; here they run
// under testing.B for performance tracking:
//
//	go test -bench=. -benchmem

import (
	"testing"
	"time"

	"trips/internal/annotation"
	"trips/internal/cleaning"
	"trips/internal/complement"
	"trips/internal/experiments"
	"trips/internal/floorplan"
	"trips/internal/position"
	"trips/internal/semantics"
	"trips/internal/simul"
	"trips/internal/viewer"
)

// benchEnv caches the shared environment across benchmarks; building it is
// itself measured by BenchmarkE3_DSMBuild.
var benchEnv *experiments.Env

func env(b *testing.B) *experiments.Env {
	b.Helper()
	if benchEnv == nil {
		spec := experiments.DefaultEnvSpec()
		spec.Devices = 10
		e, err := experiments.NewEnv(spec)
		if err != nil {
			b.Fatal(err)
		}
		benchEnv = e
	}
	return benchEnv
}

// oneSequence returns a single raw sequence of roughly n records.
func oneSequence(b *testing.B, e *experiments.Env, n int) *position.Sequence {
	b.Helper()
	seq := position.NewSequence("bench")
	for _, dev := range e.Raw.Devices() {
		for _, r := range e.Raw.Sequence(dev).Records {
			if seq.Len() >= n {
				return seq
			}
			rr := r
			rr.Device = "bench"
			seq.Append(rr)
		}
	}
	return seq
}

// BenchmarkE1_Translation is Table 1: the full three-layer translation of
// one device sequence (clean + annotate + complement, uniform prior).
func BenchmarkE1_Translation(b *testing.B) {
	e := env(b)
	seq := oneSequence(b, e, 500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := e.Trans.TranslateOne(seq, nil)
		if res.Final.Len() == 0 {
			b.Fatal("no semantics")
		}
	}
	b.ReportMetric(float64(seq.Len()), "records/op")
}

// BenchmarkE2_Pipeline measures Figure 1 stage by stage.
func BenchmarkE2_Pipeline(b *testing.B) {
	e := env(b)
	seq := oneSequence(b, e, 500)
	cleaned, _ := e.Trans.Cleaner.Clean(seq)
	annotated := e.Trans.Annotator.Annotate(cleaned)
	know := complement.BuildKnowledge(e.Model, []*semantics.Sequence{annotated}, 2*time.Minute)

	b.Run("cleaning", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e.Trans.Cleaner.Clean(seq)
		}
	})
	b.Run("annotation", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e.Trans.Annotator.Annotate(cleaned)
		}
	})
	b.Run("knowledge", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			complement.BuildKnowledge(e.Model, []*semantics.Sequence{annotated}, 2*time.Minute)
		}
	})
	b.Run("complementing", func(b *testing.B) {
		b.ReportAllocs()
		comp := complement.NewComplementor(e.Model, know)
		for i := 0; i < b.N; i++ {
			comp.Complement(annotated)
		}
	})
}

// BenchmarkE3_DSMBuild is Figure 2: compiling and freezing a 7-floor mall
// DSM (geometry, indexes, navigation graph, region adjacency).
func BenchmarkE3_DSMBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := simul.BuildMall(simul.MallSpec{Floors: 7, ShopsPerFloor: 8}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE3_Trace is Figure 2's semi-automatic path: raster floorplan
// tracing plus DSM compilation.
func BenchmarkE3_Trace(b *testing.B) {
	img := experiments.SyntheticFloorplan(400, 240)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		canvas, err := floorplan.Trace(img, 1, floorplan.DefaultTraceOptions())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := floorplan.Build("traced", floorplan.BuildOptions{}, canvas); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE4_Cleaning measures the Cleaning layer and its distance-metric
// ablation (E4a): indoor walking distance vs Euclidean.
func BenchmarkE4_Cleaning(b *testing.B) {
	e := env(b)
	seq := oneSequence(b, e, 500)
	b.Run("walking-distance", func(b *testing.B) {
		cl := cleaning.New(e.Model)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cl.Clean(seq)
		}
	})
	b.Run("euclidean-ablation", func(b *testing.B) {
		cl := cleaning.New(e.Model)
		cl.UseEuclidean = true
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cl.Clean(seq)
		}
	})
}

// BenchmarkE4_Identify measures per-snippet event identification for each
// classifier.
func BenchmarkE4_Identify(b *testing.B) {
	e := env(b)
	seq := oneSequence(b, e, 500)
	cleaned, _ := e.Trans.Cleaner.Clean(seq)
	snippets := annotation.Split(cleaned, annotation.DefaultSplitConfig())
	if len(snippets) == 0 {
		b.Fatal("no snippets")
	}
	for _, name := range []string{"gaussian-nb", "logistic-regression", "decision-tree"} {
		b.Run(name, func(b *testing.B) {
			em := trainBenchModel(b, e, name)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				em.Identify(snippets[i%len(snippets)])
			}
		})
	}
}

func trainBenchModel(b *testing.B, e *experiments.Env, name string) *annotation.EventModel {
	b.Helper()
	var clf annotation.Classifier
	switch name {
	case "gaussian-nb":
		clf = annotation.NewGaussianNB()
	case "logistic-regression":
		clf = annotation.NewLogisticRegression()
	default:
		clf = annotation.NewDecisionTree()
	}
	em, err := annotation.TrainEventModel(e.Editor.TrainingSet(), clf, e.Trans.Annotator.Cfg.Split)
	if err != nil {
		b.Fatal(err)
	}
	return em
}

// BenchmarkE4_Split measures the density-based splitting (E4).
func BenchmarkE4_Split(b *testing.B) {
	e := env(b)
	seq := oneSequence(b, e, 2000)
	cleaned, _ := e.Trans.Cleaner.Clean(seq)
	b.Run("density-based", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			annotation.Split(cleaned, annotation.DefaultSplitConfig())
		}
	})
}

// BenchmarkE4_MAPInference measures the Complementor's MAP path search,
// learned prior vs the uniform-prior ablation (E4c).
func BenchmarkE4_MAPInference(b *testing.B) {
	e := env(b)
	results := e.Trans.Translate(e.Raw)
	var all []*semantics.Sequence
	for _, r := range results {
		all = append(all, r.Original)
	}
	know := complement.BuildKnowledge(e.Model, all, 2*time.Minute)
	gappy := semantics.NewSequence("bench")
	regs := simul.ShopRegions(e.Model)
	t0 := experiments.Start
	gappy.Append(semantics.Triplet{Event: semantics.EventStay, Region: regs[0].Tag,
		RegionID: regs[0].ID, From: t0, To: t0.Add(5 * time.Minute)})
	last := regs[len(regs)-1]
	gappy.Append(semantics.Triplet{Event: semantics.EventStay, Region: last.Tag,
		RegionID: last.ID, From: t0.Add(30 * time.Minute), To: t0.Add(35 * time.Minute)})

	b.Run("learned-prior", func(b *testing.B) {
		comp := complement.NewComplementor(e.Model, know)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			comp.Complement(gappy)
		}
	})
	b.Run("uniform-ablation", func(b *testing.B) {
		comp := complement.NewComplementor(e.Model, know)
		comp.UniformPrior = true
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			comp.Complement(gappy)
		}
	})
}

// BenchmarkE5_Render is Figure 4: unified SVG rendering of the mobility
// data sequences (map + timeline).
func BenchmarkE5_Render(b *testing.B) {
	e := env(b)
	seq := oneSequence(b, e, 1000)
	res := e.Trans.TranslateOne(seq, nil)
	v := viewer.NewView(e.Model)
	v.SetSource(viewer.SourceRaw, viewer.FromPositioning(viewer.SourceRaw, res.Raw))
	v.SetSource(viewer.SourceCleaned, viewer.FromPositioning(viewer.SourceCleaned, res.Cleaned))
	v.SetSource(viewer.SourceSemantics, viewer.FromSemantics(res.Final))
	b.Run("map", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			viewer.RenderSVG(v, viewer.RenderOptions{})
		}
	})
	b.Run("timeline", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			viewer.RenderTimelineSVG(v, 900)
		}
	})
}

// BenchmarkE6_Workflow is Figures 5–6: the end-to-end two-phase pipeline
// over the whole population, including parallel phase one.
func BenchmarkE6_Workflow(b *testing.B) {
	e := env(b)
	records := e.Raw.NumRecords()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Trans.Translate(e.Raw)
	}
	b.ReportMetric(float64(records), "records/op")
}

// BenchmarkWalkingDistance times the DSM's door-graph Dijkstra between the
// first and last shop centres. Both centres are walkable, so each endpoint's
// snap is a single Locate hit: this measures the search, not the Cleaning
// layer's hot spot, which is locating records that positioning noise put
// in walls or off the plan (internal/dsm's BenchmarkLocate).
func BenchmarkWalkingDistance(b *testing.B) {
	e := env(b)
	regs := simul.ShopRegions(e.Model)
	a := regs[0]
	c := regs[len(regs)-1]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := e.Model.WalkingDistance(
			locOf(a), locOf(c),
		); !ok {
			b.Fatal("unreachable")
		}
	}
}

func locOf(r *SemanticRegion) Location {
	return Location{P: r.Center(), Floor: r.Floor}
}
