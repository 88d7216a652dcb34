package trips

// Benchmarks, one per paper artifact (DESIGN.md §4) plus the ablation
// benches of §5. The same workloads back cmd/trips-bench; here they run
// under testing.B for performance tracking:
//
//	go test -bench=. -benchmem

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"trips/internal/annotation"
	"trips/internal/cleaning"
	"trips/internal/complement"
	"trips/internal/dsm"
	"trips/internal/experiments"
	"trips/internal/floorplan"
	"trips/internal/online"
	"trips/internal/position"
	"trips/internal/semantics"
	"trips/internal/simul"
	"trips/internal/storage"
	"trips/internal/tripstore"
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
// ablation (DESIGN.md §5.1): indoor walking distance vs Euclidean.
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
	em, err := annotation.TrainEventModel(e.Editor.TrainingSet(), clf)
	if err != nil {
		b.Fatal(err)
	}
	return em
}

// BenchmarkE4_Split measures the density-based splitting against the
// fixed-window ablation (DESIGN.md §5.3).
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
	b.Run("fixed-window-ablation", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cleaned.SplitByGap(2 * time.Minute)
		}
	})
}

// BenchmarkE4_MAPInference measures the Complementor's MAP path search,
// learned prior vs the uniform-prior ablation (DESIGN.md §5.4).
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

// onlineBenchEnv caches a larger population for the online engine bench:
// more devices than the shared env so sharding has work to spread.
var onlineBenchEnv *experiments.Env

// onlineBenchFeeds partitions the population into device-disjoint,
// time-ordered feeds — the producers of the bench, mirroring a venue with
// several positioning gateways. Per-device ordering is preserved because a
// device belongs to exactly one feed.
var onlineBenchFeeds [][]position.Record

func onlineEnv(b *testing.B) (*experiments.Env, [][]position.Record) {
	b.Helper()
	if onlineBenchEnv == nil {
		spec := experiments.DefaultEnvSpec()
		spec.Devices = 16
		spec.Window = time.Hour
		e, err := experiments.NewEnv(spec)
		if err != nil {
			b.Fatal(err)
		}
		onlineBenchEnv = e
		const producers = 4
		onlineBenchFeeds = make([][]position.Record, producers)
		for i, seq := range e.Raw.Sequences() {
			p := i % producers
			onlineBenchFeeds[p] = append(onlineBenchFeeds[p], seq.Records...)
		}
		for _, feed := range onlineBenchFeeds {
			sort.SliceStable(feed, func(i, j int) bool {
				return feed[i].At.Before(feed[j].At)
			})
		}
	}
	return onlineBenchEnv, onlineBenchFeeds
}

// BenchmarkOnlineTranslate measures the online engine's sustained ingest
// throughput at 1, 4, and 16 shards over a 16-device hour of traffic fed
// by 4 concurrent producers, plus the batch Translate of the same dataset
// as the baseline. One op = one full pass: engine start, every record
// ingested, engine closed (all sessions sealed). Shard scaling needs
// GOMAXPROCS > 1; the aggressive FlushEvery keeps the incremental
// recompute — not channel routing — the dominant cost, as in a live
// deployment with long-running sessions.
func BenchmarkOnlineTranslate(b *testing.B) {
	e, feeds := onlineEnv(b)
	records := e.Raw.NumRecords()
	for _, shards := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("shards-%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var emitted atomic.Int64
				eng, err := e.Trans.NewOnline(online.Config{
					Shards:        shards,
					FlushEvery:    16,
					FlushInterval: -1,
					IdleTimeout:   -1,
					Emitter: online.EmitterFunc(func(online.Emission) {
						emitted.Add(1)
					}),
				})
				if err != nil {
					b.Fatal(err)
				}
				var wg sync.WaitGroup
				for _, feed := range feeds {
					wg.Add(1)
					go func(feed []position.Record) {
						defer wg.Done()
						for _, r := range feed {
							if err := eng.Ingest(r); err != nil {
								b.Error(err)
								return
							}
						}
					}(feed)
				}
				wg.Wait()
				eng.Close()
				if emitted.Load() == 0 {
					b.Fatal("no semantics emitted")
				}
			}
			b.ReportMetric(float64(records*b.N)/b.Elapsed().Seconds(), "records/s")
		})
	}
	b.Run("batch-baseline", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e.Trans.Translate(e.Raw)
		}
		b.ReportMetric(float64(records*b.N)/b.Elapsed().Seconds(), "records/s")
	})
	// Long-session variants: one device whose tail grows to 1k/8k records
	// without a hard break, flushed every 16 records — the workload where
	// per-flush recompute cost over the tail dominates. The acceptance
	// property is that ns/record stays roughly flat from 1k to 8k (flush
	// cost proportional to the new suffix); before the incremental flush it
	// grew linearly with the tail.
	for _, n := range []int{1000, 8000} {
		recs := experiments.LongSessionRecords(e, "long", n)
		b.Run(fmt.Sprintf("long-session-%dk", n/1000), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var emitted atomic.Int64
				eng, err := e.Trans.NewOnline(online.Config{
					Shards:        1,
					FlushEvery:    16,
					FlushInterval: -1,
					IdleTimeout:   -1,
					Emitter: online.EmitterFunc(func(online.Emission) {
						emitted.Add(1)
					}),
				})
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range recs {
					if err := eng.Ingest(r); err != nil {
						b.Fatal(err)
					}
				}
				eng.Close()
				if emitted.Load() == 0 {
					b.Fatal("no semantics emitted")
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n*b.N), "ns/record")
			b.ReportMetric(float64(n*b.N)/b.Elapsed().Seconds(), "records/s")
		})
	}
}

// warehouseBenchTrips synthesizes n trips in arrival order: 64 devices
// round-robin, 32 regions, 4-minute stays every 5 seconds — the shape a
// day of online emissions has.
func warehouseBenchTrips(n int) []tripstore.Trip {
	const devices, regions = 64, 32
	start := time.Date(2017, 1, 1, 10, 0, 0, 0, time.UTC)
	seq := make([]int, devices)
	trips := make([]tripstore.Trip, 0, n)
	for i := 0; i < n; i++ {
		d := i % devices
		r := (i * 7) % regions
		trips = append(trips, tripstore.Trip{
			Device: position.DeviceID(fmt.Sprintf("dev-%03d", d)),
			Seq:    seq[d],
			Triplet: semantics.Triplet{
				Event:    semantics.EventStay,
				Region:   fmt.Sprintf("shop-%02d", r),
				RegionID: dsm.RegionID(fmt.Sprintf("r-%02d", r)),
				From:     start.Add(time.Duration(i) * 5 * time.Second),
				To:       start.Add(time.Duration(i)*5*time.Second + 4*time.Minute),
			},
		})
		seq[d]++
	}
	return trips
}

// BenchmarkWarehouseIngest measures the warehouse write path: index
// maintenance alone (memory) and with the batched segment log underneath
// (durable).
func BenchmarkWarehouseIngest(b *testing.B) {
	for _, size := range []int{10_000, 100_000} {
		trips := warehouseBenchTrips(size)
		b.Run(fmt.Sprintf("memory-%dk", size/1000), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w, err := tripstore.New(tripstore.Options{})
				if err != nil {
					b.Fatal(err)
				}
				for _, tr := range trips {
					if err := w.Insert(tr); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(size*b.N)/b.Elapsed().Seconds(), "trips/s")
		})
	}
	trips := warehouseBenchTrips(10_000)
	b.Run("durable-10k", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			st, err := storage.Open(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			w, err := tripstore.New(tripstore.Options{Log: &tripstore.LogOptions{Store: st}})
			if err != nil {
				b.Fatal(err)
			}
			for _, tr := range trips {
				if err := w.Insert(tr); err != nil {
					b.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(trips)*b.N)/b.Elapsed().Seconds(), "trips/s")
	})
}

// BenchmarkWarehouseQuery measures the read path per predicate class at
// 10k and 100k warehoused trips: one device's timeline, a time-range
// overlap via the interval index, and a region posting list intersected
// with a time range. Pages are capped at 100 trips, the server default.
func BenchmarkWarehouseQuery(b *testing.B) {
	for _, size := range []int{10_000, 100_000} {
		w, err := tripstore.New(tripstore.Options{})
		if err != nil {
			b.Fatal(err)
		}
		trips := warehouseBenchTrips(size)
		for _, tr := range trips {
			if err := w.Insert(tr); err != nil {
				b.Fatal(err)
			}
		}
		mid := trips[size/2].Triplet.From
		specs := []struct {
			name string
			spec tripstore.QuerySpec
		}{
			{"device", tripstore.QuerySpec{Device: "dev-007", Limit: 100}},
			{"time", tripstore.QuerySpec{Since: mid, Until: mid.Add(5 * time.Minute), Limit: 100}},
			{"region", tripstore.QuerySpec{Region: "shop-03", Since: mid, Until: mid.Add(30 * time.Minute), Limit: 100}},
		}
		for _, tc := range specs {
			b.Run(fmt.Sprintf("%s-%dk", tc.name, size/1000), func(b *testing.B) {
				page, err := w.Query(tc.spec) // warm: sorts the index once
				if err != nil {
					b.Fatal(err)
				}
				if len(page.Trips) == 0 {
					b.Fatal("empty benchmark query")
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := w.Query(tc.spec); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(len(page.Trips)), "trips/page")
			})
		}
	}
}

// analyticsBenchTrips reshapes the warehouse bench workload for the
// analytics views: same 64 devices and 32 regions, but each device walks
// through the regions (one step per trip) instead of revisiting a single
// one, so the flow matrix actually populates.
func analyticsBenchTrips(n int) []tripstore.Trip {
	trips := warehouseBenchTrips(n)
	const devices, regions = 64, 32
	for i := range trips {
		r := (i%devices*7 + i/devices) % regions
		trips[i].Triplet.Region = fmt.Sprintf("shop-%02d", r)
		trips[i].Triplet.RegionID = dsm.RegionID(fmt.Sprintf("r-%02d", r))
	}
	return trips
}

// BenchmarkAnalyticsIngest measures the analytics fold: trips/s through
// Engine.Ingest at 10k and 100k trips (the warehouse bench workload: 64
// devices, 32 regions). Per-trip cost is O(1) map work, so trips/s should
// hold flat as the corpus grows.
func BenchmarkAnalyticsIngest(b *testing.B) {
	for _, size := range []int{10_000, 100_000} {
		trips := analyticsBenchTrips(size)
		b.Run(fmt.Sprintf("%dk", size/1000), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				a := NewAnalytics(AnalyticsConfig{})
				for _, tr := range trips {
					a.Ingest(tr.Device, tr.Triplet)
				}
			}
			b.ReportMetric(float64(size*b.N)/b.Elapsed().Seconds(), "trips/s")
		})
	}
}

// BenchmarkAnalyticsQuery measures every materialized view's read path at
// 10k and 100k folded trips. The acceptance property of the subsystem is
// that these stay O(view) — occupancy/top-k scale with regions, flows with
// region pairs, dwell with histogram buckets — so the numbers must stay
// flat from 10k to 100k (the device and region populations are identical;
// only the trip count grows 10×).
func BenchmarkAnalyticsQuery(b *testing.B) {
	for _, size := range []int{10_000, 100_000} {
		a := NewAnalytics(AnalyticsConfig{})
		for _, tr := range analyticsBenchTrips(size) {
			a.Ingest(tr.Device, tr.Triplet)
		}
		queries := []struct {
			name string
			run  func() int
		}{
			{"occupancy", func() int { return len(a.Occupancy(0)) }},
			{"flows", func() int { return len(a.Flows("", 10)) }},
			{"dwell", func() int {
				st, _ := a.Dwell("r-03")
				return int(st.Count)
			}},
			{"topk", func() int { return len(a.TopK(5, 30*time.Minute)) }},
		}
		for _, q := range queries {
			b.Run(fmt.Sprintf("%s-%dk", q.name, size/1000), func(b *testing.B) {
				if q.run() == 0 {
					b.Fatal("empty benchmark query")
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					q.run()
				}
			})
		}
	}
}

// BenchmarkAnalyticsBoot compares the two analytics boot paths at 10k and
// 100k warehoused trips: a full warehouse Bootstrap (O(stored trips)) vs
// loading a durable snapshot and replaying only the 512-trip tail past its
// fold frontiers. The full numbers must grow ~10× between the sizes while
// the snapshot numbers stay nearly flat — boot cost scales with the tail,
// not the store.
func BenchmarkAnalyticsBoot(b *testing.B) {
	const tail = 512
	cfg := AnalyticsConfig{}
	for _, size := range []int{10_000, 100_000} {
		trips := analyticsBenchTrips(size)
		w, err := tripstore.New(tripstore.Options{})
		if err != nil {
			b.Fatal(err)
		}
		for _, tr := range trips {
			if err := w.Insert(tr); err != nil {
				b.Fatal(err)
			}
		}
		// The snapshot covers everything but the last `tail` trips, exactly
		// the state a crash mid-stream leaves behind.
		st, err := storage.Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		pre := NewAnalytics(cfg)
		for _, tr := range trips[:size-tail] {
			pre.Ingest(tr.Device, tr.Triplet)
		}
		opts := AnalyticsStoreOptions{Store: st}
		if err := pre.SaveSnapshot(opts); err != nil {
			b.Fatal(err)
		}

		b.Run(fmt.Sprintf("full-%dk", size/1000), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				a := NewAnalytics(cfg)
				if err := a.Bootstrap(w); err != nil {
					b.Fatal(err)
				}
				if a.Stats().Trips != int64(size) {
					b.Fatal("incomplete bootstrap")
				}
			}
		})
		b.Run(fmt.Sprintf("snapshot-%dk", size/1000), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				a := NewAnalytics(cfg)
				if ok, err := a.LoadSnapshot(opts); err != nil || !ok {
					b.Fatalf("LoadSnapshot = %v, %v", ok, err)
				}
				if err := a.Bootstrap(w); err != nil {
					b.Fatal(err)
				}
				if a.Stats().Trips != int64(size) {
					b.Fatal("incomplete snapshot boot")
				}
			}
			b.ReportMetric(tail, "tail-trips/op")
		})
	}
}

// BenchmarkAnalyticsSubscribe measures ingest throughput with live
// subscribers attached and draining — the fan-out cost of the continuous
// query path.
func BenchmarkAnalyticsSubscribe(b *testing.B) {
	trips := analyticsBenchTrips(10_000)
	for _, subs := range []int{0, 1, 8} {
		b.Run(fmt.Sprintf("subscribers-%d", subs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				a := NewAnalytics(AnalyticsConfig{SubscriberBuffer: 1024})
				var wg sync.WaitGroup
				subsList := make([]*AnalyticsSubscription, subs)
				for s := range subsList {
					subsList[s] = a.Subscribe(nil)
					wg.Add(1)
					go func(sub *AnalyticsSubscription) {
						defer wg.Done()
						for range sub.C() {
						}
					}(subsList[s])
				}
				b.StartTimer()
				for _, tr := range trips {
					a.Ingest(tr.Device, tr.Triplet)
				}
				b.StopTimer()
				for _, sub := range subsList {
					sub.Close()
				}
				wg.Wait()
				if st := a.Stats(); st.Trips != int64(len(trips)) {
					b.Fatalf("folded %d trips", st.Trips)
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(len(trips)*b.N)/b.Elapsed().Seconds(), "trips/s")
		})
	}
}

// BenchmarkWalkingDistance isolates the DSM's door-graph Dijkstra, the
// hot spot of the Cleaning layer.
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
