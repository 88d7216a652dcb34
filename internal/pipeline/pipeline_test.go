package pipeline

import (
	"encoding/json"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"trips/internal/analytics"
	"trips/internal/config"
	"trips/internal/core"
	"trips/internal/dsm"
	"trips/internal/events"
	"trips/internal/online"
	"trips/internal/position"
	"trips/internal/semantics"
	"trips/internal/simul"
)

// fleet trains a translator on a small simulated mall and returns it with
// the population's records, one slice per device in time order.
func fleet(t *testing.T, devices int) (*core.Translator, [][]position.Record) {
	t.Helper()
	model, err := simul.BuildMall(simul.MallSpec{Floors: 2, ShopsPerFloor: 4})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Date(2017, 1, 1, 10, 0, 0, 0, time.UTC)
	ds, truths, err := simul.NewSim(model, 7).Population(devices, start, time.Hour, simul.DefaultErrorModel())
	if err != nil {
		t.Fatal(err)
	}
	ed := events.NewEditor()
	for _, es := range simul.TrainingSegments(ds, truths, 30) {
		for _, recs := range es.Segments {
			if err := ed.AddSegment(events.LabeledSegment{Event: es.Event, Device: recs[0].Device, Records: recs}); err != nil {
				t.Fatal(err)
			}
		}
	}
	em, err := core.TrainEventModel(ed.TrainingSet(), config.AnnotatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := core.NewTranslator(model, em, config.CleanerConfig{}, config.AnnotatorConfig{}, config.ComplementorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var feeds [][]position.Record
	for _, seq := range ds.Sequences() {
		feeds = append(feeds, seq.Records)
	}
	return tr, feeds
}

// manual is an engine configuration without timers: sealing happens on
// FlushEvery, Flush and Close only.
func manual() online.Config {
	return online.Config{Shards: 4, FlushEvery: 16, FlushInterval: -1, IdleTimeout: -1}
}

// tripAt is a ten-minute stay in a region named like its ID.
func tripAt(region string, from time.Time) semantics.Triplet {
	return semantics.Triplet{Event: semantics.EventStay, Region: region, RegionID: dsm.RegionID(region),
		From: from, To: from.Add(10 * time.Minute)}
}

func viewsJSON(t *testing.T, an *analytics.Engine) string {
	t.Helper()
	raw, err := json.Marshal(an.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestRebuildUnderLiveIngest streams several devices through engine → tee
// while Rebuild runs back to back and a subscriber stays attached. No live
// fold may be lost or double-counted across a swap, the in-flight overlap
// must not read as a dropped backfill, a departure signalled between
// rebuilds must survive them, and the subscriber must outlive them all.
func TestRebuildUnderLiveIngest(t *testing.T) {
	tr, feeds := fleet(t, 10)
	// The subscriber keeps up: each emission, once folded, waits until the
	// subscriber has drained every delta published so far, so its buffer
	// never overflows however the scheduler treats the draining goroutine.
	var sub *analytics.Subscription
	cfg := manual()
	cfg.Emitter = online.EmitterFunc(func(online.Emission) {
		for len(sub.C()) > 0 {
			runtime.Gosched()
		}
	})
	p, err := Open(tr, Options{Analytics: analytics.Config{Shards: 4}, Online: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	var deltas atomic.Int64
	sub = p.Analytics.Subscribe(nil)
	subDone := make(chan struct{})
	go func() {
		defer close(subDone)
		for range sub.C() {
			deltas.Add(1)
		}
	}()

	// One device has come and gone before the stream starts: a sealed stay,
	// then the idle finalizer's signal once rebuilds are running.
	leaver := position.DeviceID("leaver")
	stay := feeds[0][0].At.Add(-time.Hour)
	tee := Tee(p.Warehouse, p.Analytics, nil)
	for seq, r := range []string{"hall", "shop"} {
		tee.Emit(online.Emission{Device: leaver, Seq: seq, Triplet: tripAt(r, stay.Add(time.Duration(seq)*10*time.Minute))})
	}
	leftAt := stay.Add(20 * time.Minute)

	var feeding sync.WaitGroup
	for _, recs := range feeds {
		feeding.Add(1)
		go func(recs []position.Record) {
			defer feeding.Done()
			for _, r := range recs {
				if err := p.Engine.Ingest(r); err != nil {
					t.Error(err)
					return
				}
			}
		}(recs)
	}
	fed := make(chan struct{})
	go func() { feeding.Wait(); close(fed) }()

	rebuilds := 0
	for streaming := true; streaming || rebuilds < 3; rebuilds++ {
		select {
		case <-fed:
			streaming = false
		default:
		}
		if rebuilds == 1 {
			p.Analytics.DeviceLeft(leaver, leftAt)
		}
		if err := p.Rebuild(); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("%d rebuilds during the stream", rebuilds)

	// Quiescence: everything still open seals through the tee, after the
	// last rebuild.
	before := deltas.Load()
	p.Engine.Close()
	sub.Close()
	<-subDone
	if deltas.Load() == before {
		t.Error("subscriber saw no delta after the last rebuild")
	}

	st := p.Analytics.Stats()
	if st.OutOfOrder != 0 || st.RebuildRecommended {
		t.Errorf("rebuilds under live ingest dropped folds: %+v", st)
	}
	if st.Trips != int64(p.Warehouse.Stats().Trips) {
		t.Errorf("views folded %d trips, warehouse holds %d", st.Trips, p.Warehouse.Stats().Trips)
	}
	ref := analytics.New(analytics.Config{Shards: 4})
	if err := ref.Bootstrap(p.Warehouse); err != nil {
		t.Fatal(err)
	}
	ref.DeviceLeft(leaver, leftAt)
	if got, want := viewsJSON(t, p.Analytics), viewsJSON(t, ref); got != want {
		t.Errorf("views after rebuilds under live ingest differ from a fresh bootstrap of the warehouse:\ngot:  %s\nwant: %s", got, want)
	}
	for _, o := range p.Analytics.Occupancy(0) {
		if o.RegionID == "shop" && o.Occupancy != 0 {
			t.Errorf("departed device still occupies its region: %+v", o)
		}
	}
}

// TestReopen: what a closed pipeline persisted is what the next Open over
// the same directory serves.
func TestReopen(t *testing.T) {
	tr, feeds := fleet(t, 6)
	opts := Options{StoreDir: t.TempDir(), SnapshotInterval: time.Hour, Online: manual()}
	p, err := Open(tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, recs := range feeds {
		for _, r := range recs {
			if err := p.Engine.Ingest(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	trips, views := p.Warehouse.Stats().Trips, viewsJSON(t, p.Analytics)
	if trips == 0 {
		t.Fatal("the feed sealed nothing")
	}

	p2, err := Open(tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if got := p2.Warehouse.Stats().Trips; got != trips {
		t.Errorf("reopened warehouse holds %d trips, closed with %d", got, trips)
	}
	if got := viewsJSON(t, p2.Analytics); got != views {
		t.Errorf("reopened views differ:\ngot:  %s\nwant: %s", got, views)
	}
	if p2.Analytics.Stats().LastSnapshot.IsZero() {
		t.Error("views were not loaded from the snapshot Close wrote")
	}
}

// TestRestartResendIsNoBackfill: a feed re-sent to a pipeline restarted over
// its store seals again the trips the warehouse already holds. The warehouse
// forwards none of them, so the views fold nothing, drop nothing as a
// backfill and recommend no rebuild.
func TestRestartResendIsNoBackfill(t *testing.T) {
	tr, feeds := fleet(t, 6)
	opts := Options{StoreDir: t.TempDir(), SnapshotInterval: time.Hour, Online: manual()}
	run := func() *Pipeline {
		t.Helper()
		p, err := Open(tr, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, recs := range feeds {
			for _, r := range recs {
				if err := p.Engine.Ingest(r); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		return p
	}
	first := run()
	trips, views := first.Warehouse.Stats().Trips, viewsJSON(t, first.Analytics)
	if trips == 0 {
		t.Fatal("the feed sealed nothing")
	}

	again := run()
	if st := again.Analytics.Stats(); st.OutOfOrder != 0 || st.RebuildRecommended {
		t.Errorf("the re-sent feed read as a backfill: %d of %d trips out of order, %+v", st.OutOfOrder, trips, st)
	}
	if st := again.Warehouse.Stats(); st.Trips != trips || st.Duplicates != trips {
		t.Errorf("warehouse after the re-send: %+v, want %d trips, each re-sent once as a duplicate", st, trips)
	}
	if got := viewsJSON(t, again.Analytics); got != views {
		t.Errorf("the re-sent feed changed the views:\ngot:  %s\nwant: %s", got, views)
	}
}
