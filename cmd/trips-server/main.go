// Command trips-server serves the TRIPS Viewer in a web browser — the demo
// deployment of the paper ("The audience can interact with TRIPS in a web
// browser"). It translates a dataset at startup and serves, per device, the
// interactive map view and timeline (Figs. 4–6): floor switching, source
// visibility toggles, and timeline-driven selection. It also runs the
// online translation engine: POST /ingest feeds live positioning records,
// and GET /live/{device} serves the incrementally-built semantics.
//
// Every translated trip — batch results at startup and online-sealed
// triplets as they emit — lands in the trip warehouse, queryable through
// GET /trips, GET /trips/{device}, and GET /regions/{id}/visits with
// device/region/event/since/until/limit/cursor parameters. With -store the
// warehouse persists (its segment log) and survives restarts.
//
// The same trip stream feeds the incremental analytics views — live
// occupancy, region flows, dwell times, windowed popularity — served under
// GET /analytics/* with an SSE continuous-query endpoint at
// GET /analytics/subscribe (see analytics.go). On startup the views
// bootstrap from the warehouse; with -store they additionally persist as
// periodic snapshots beside the warehouse's segments, so a restart loads
// the snapshot and replays only the warehouse tail instead of re-folding
// the whole store, and POST /analytics/rebuild re-derives the views from
// the warehouse after a backfill.
//
// Usage:
//
//	trips-server -demo                   # self-generated mall dataset
//	trips-server -dsm mall.json -data raw.csv -events events.json
//	trips-server -addr :8765 -demo -store store/
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"html/template"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"trips/internal/analytics"
	"trips/internal/config"
	"trips/internal/core"
	"trips/internal/dsm"
	"trips/internal/events"
	"trips/internal/obs"
	"trips/internal/obs/trace"
	"trips/internal/online"
	"trips/internal/pipeline"
	"trips/internal/position"
	"trips/internal/semantics"
	"trips/internal/simul"
	"trips/internal/tripstore"
	"trips/internal/viewer"
)

type server struct {
	model   *dsm.Model
	results map[position.DeviceID]core.Result
	truths  map[position.DeviceID]simul.Truth
	devices []position.DeviceID

	// p is the live pipeline: online engine → warehouse → analytics views.
	p *pipeline.Pipeline

	// obs is the metrics registry and per-layer instruments behind
	// GET /metrics; rebuildWarned latches the rebuild-recommended warning so
	// the watcher logs each episode once.
	obs           *serverObs
	rebuildWarned atomic.Bool
}

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:8765", "listen address")
		demo        = flag.Bool("demo", false, "self-generate a demo mall dataset")
		dsmPath     = flag.String("dsm", "", "DSM JSON path")
		dataPath    = flag.String("data", "", "positioning dataset")
		eventsPath  = flag.String("events", "", "Event Editor state")
		storeDir    = flag.String("store", "", "directory of the warehouse segments and the analytics view snapshot (empty = in-memory only, views rebuilt at every boot)")
		ingestQueue = flag.Int("ingest-queue", 0, "online shard inbox capacity in records (0 = engine default); POST /ingest answers 429 when a shard's inbox is full")
		anInterval  = flag.Duration("analytics-snapshot", time.Minute, "interval between periodic analytics snapshots (with -store)")
		debugAddr   = flag.String("debug-addr", "", "separate listen address for net/http/pprof (empty = disabled)")
		autoRebuild = flag.Bool("auto-rebuild", false, "rebuild the analytics views automatically when they drop a backfill")
		logJSON     = flag.Bool("log-json", false, "emit structured logs as JSON instead of key=value text")
		traceSample = flag.Float64("trace-sample", 0.01, "fraction of requests head-sampled into /debug/traces (0 disables sampling; X-Trace-Id still forces a trace)")
		traceSlow   = flag.Duration("trace-slow", 250*time.Millisecond, "tail-keep threshold: sampled traces at least this slow are pinned against ring eviction")
		traceRing   = flag.Int("trace-ring", 256, "completed traces retained in memory for /debug/traces")
	)
	flag.Parse()

	var handler slog.Handler = slog.NewTextHandler(os.Stderr, nil)
	if *logJSON {
		handler = slog.NewJSONHandler(os.Stderr, nil)
	}
	slog.SetDefault(slog.New(handler))

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	err := run(ctx, runOptions{
		addr:        *addr,
		debugAddr:   *debugAddr,
		autoRebuild: *autoRebuild,
		load: loadOptions{
			demo:          *demo,
			dsmPath:       *dsmPath,
			dataPath:      *dataPath,
			eventsPath:    *eventsPath,
			storeDir:      *storeDir,
			snapshotEvery: *anInterval,
			online:        online.Config{QueueLen: *ingestQueue},
			trace: trace.Config{
				SampleRate: *traceSample,
				KeepOver:   *traceSlow,
				RingSize:   *traceRing,
			},
		},
	})
	if err != nil {
		slog.Error("server failed", "error", err)
		os.Exit(1)
	}
}

// runOptions is what main's flags decide beyond assembly.
type runOptions struct {
	addr        string
	debugAddr   string
	autoRebuild bool
	load        loadOptions
}

// run loads the server, serves until ctx ends or the listener fails, and
// closes the pipeline on every way out — a failed listen after a -store boot
// still flushes the pending segment and writes the final view snapshot.
func run(ctx context.Context, opts runOptions) (err error) {
	s, err := load(opts.load)
	if err != nil {
		return fmt.Errorf("startup: %w", err)
	}
	defer func() { err = errors.Join(err, s.p.Close()) }()
	srv := &http.Server{
		Addr:              opts.addr,
		Handler:           s.mux(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	if opts.debugAddr != "" {
		go func() {
			slog.Info("pprof listening", "addr", opts.debugAddr)
			if err := http.ListenAndServe(opts.debugAddr, debugMux()); err != nil {
				slog.Error("pprof server failed", "error", err)
			}
		}()
	}
	// The watcher warns when the views drop a backfill and — with
	// -auto-rebuild — triggers the rebuild path itself.
	go s.watchRebuild(ctx.Done(), 15*time.Second, opts.autoRebuild)
	errc := make(chan error, 1)
	go func() {
		slog.Info("serving", "devices", len(s.devices), "addr", opts.addr)
		errc <- srv.ListenAndServe()
	}()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	slog.Info("shutting down")
	shutCtx, cancelShut := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelShut()
	if err := srv.Shutdown(shutCtx); err != nil {
		slog.Error("shutdown", "error", err)
	}
	return nil
}

// mux wires all routes — the batch Viewer pages, the online endpoints, and
// the observability endpoints — behind the request middleware that feeds
// the HTTP metrics and the structured access log.
func (s *server) mux() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/device/", s.handleDevice)
	mux.HandleFunc("/ingest", s.handleIngest)
	mux.HandleFunc("/live/", s.handleLive)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/trips", s.handleTrips)
	mux.HandleFunc("/trips/", s.handleDeviceTrips)
	mux.HandleFunc("/regions/", s.handleRegionVisits)
	mux.HandleFunc("/warehouse", s.handleWarehouseStats)
	mux.HandleFunc("/analytics", s.handleAnalyticsStats)
	mux.HandleFunc("/analytics/rebuild", s.handleRebuild)
	mux.HandleFunc("/analytics/occupancy", s.handleOccupancy)
	mux.HandleFunc("/analytics/flows", s.handleFlows)
	mux.HandleFunc("/analytics/dwell/", s.handleDwell)
	mux.HandleFunc("/analytics/topk", s.handleTopK)
	mux.HandleFunc("/analytics/subscribe", s.handleSubscribe)
	mux.HandleFunc("/debug/traces", s.handleTraces)
	mux.HandleFunc("/debug/traces/", s.handleTraceByID)
	mux.HandleFunc("/debug/device/", s.handleDeviceLineage)
	mux.Handle("/metrics", s.obs.reg.Handler())
	mux.Handle("/healthz", obs.HealthHandler())
	mux.Handle("/readyz", obs.ReadyHandler(s.obs.ready.Load))
	return obs.Middleware(s.obs.http, slog.Default(), s.obs.tracer, mux)
}

// loadOptions configures server assembly: where the inputs and the durable
// state live, and the subsystem configurations handed to the pipeline (load
// adds the observability bundles to them).
type loadOptions struct {
	demo       bool
	dsmPath    string
	dataPath   string
	eventsPath string
	// storeDir holds the warehouse segments and the view snapshot.
	storeDir string
	// snapshotEvery is the -analytics-snapshot interval (with storeDir).
	snapshotEvery time.Duration
	// online configures the live engine: main sets QueueLen (-ingest-queue,
	// the admission bound behind the 429s); tests shrink flush windows or
	// add a sink behind the warehouse and the views.
	online online.Config
	// analytics configures the views.
	analytics analytics.Config
	// trace configures the end-to-end tracer (-trace-sample / -trace-slow /
	// -trace-ring); the zero value keeps tracing assembled but samples
	// nothing unless a request forces itself with X-Trace-Id.
	trace trace.Config
}

func load(opts loadOptions) (*server, error) {
	demo := opts.demo
	dsmPath, dataPath, eventsPath := opts.dsmPath, opts.dataPath, opts.eventsPath
	var (
		model  *dsm.Model
		ds     *position.Dataset
		ed     *events.Editor
		truths map[position.DeviceID]simul.Truth
		err    error
	)
	if demo {
		model, err = simul.BuildMall(simul.MallSpec{Floors: 3, ShopsPerFloor: 6})
		if err != nil {
			return nil, err
		}
		sim := simul.NewSim(model, 42)
		start := time.Date(2017, 1, 1, 10, 0, 0, 0, time.UTC)
		ds, truths, err = sim.Population(12, start, 4*time.Hour, simul.DefaultErrorModel())
		if err != nil {
			return nil, err
		}
		ed = events.NewEditor()
		for _, es := range simul.TrainingSegments(ds, truths, 30) {
			for _, recs := range es.Segments {
				if err := ed.AddSegment(events.LabeledSegment{Event: es.Event, Device: recs[0].Device, Records: recs}); err != nil {
					return nil, err
				}
			}
		}
	} else {
		if dsmPath == "" || dataPath == "" || eventsPath == "" {
			return nil, fmt.Errorf("need -demo or all of -dsm/-data/-events")
		}
		if model, err = dsm.Load(dsmPath); err != nil {
			return nil, err
		}
		if ds, err = position.LoadFile(dataPath); err != nil {
			return nil, err
		}
		if ed, err = events.Load(eventsPath); err != nil {
			return nil, err
		}
	}
	em, err := core.TrainEventModel(ed.TrainingSet(), config.AnnotatorConfig{})
	if err != nil {
		return nil, err
	}
	tr, err := core.NewTranslator(model, em, config.CleanerConfig{}, config.AnnotatorConfig{}, config.ComplementorConfig{})
	if err != nil {
		return nil, err
	}
	// The observability registry exists before the pipeline so its
	// subsystems can take the per-layer instrument bundles.
	so := newServerObs(opts.trace)
	opts.online.Metrics, opts.online.Tracer = so.online, so.tracer
	opts.analytics.Metrics, opts.analytics.Tracer = so.analytics, so.tracer

	// The warehouse is the engine's sink and the single sealed store —
	// /live reads sealed triplets back from it, so the server keeps no
	// second per-device copy that idle-session eviction can't reclaim
	// (MAC-randomized device churn would grow it forever).
	p, err := pipeline.Open(tr, pipeline.Options{
		StoreDir:         opts.storeDir,
		SnapshotInterval: opts.snapshotEvery,
		Warehouse:        tripstore.Options{Metrics: so.store, Tracer: so.tracer},
		Analytics:        opts.analytics,
		Online:           opts.online,
	})
	if err != nil {
		return nil, err
	}
	s := &server{
		model:   model,
		results: make(map[position.DeviceID]core.Result),
		truths:  truths,
		p:       p,
		obs:     so,
	}
	results, err := p.Translate(ds)
	if err != nil {
		p.Close()
		return nil, err
	}
	for _, r := range results {
		s.results[r.Device] = r
		s.devices = append(s.devices, r.Device)
	}
	sort.Slice(s.devices, func(i, j int) bool { return s.devices[i] < s.devices[j] })

	// Everything the query surface depends on exists now: dataset
	// translated, warehouse replayed, views bootstrapped, engine running.
	// Register the pull-time metric bridges over them and open /readyz.
	s.registerBridges()
	so.ready.Store(true)
	return s, nil
}

// ingestRetryAfter is the Retry-After hint on 429 responses. One second is
// the engine's flush cadence: by the time a well-behaved client retries,
// the backed-up shard has had at least one drain pass.
const ingestRetryAfter = "1"

// handleIngest accepts positioning records (CSV rows or JSON lines, the
// same formats the Data Selector reads from files) and streams them into
// the online engine as they parse: O(1) memory per request instead of
// materializing the dataset, so the 64MB body cap bounds the wire size,
// not the server's heap. Error accounting stays per-record: a malformed
// row stops the stream with its row number, and the response reports how
// many records had already been ingested by then.
//
// Admission is bounded: records route through TryIngest, so a full shard
// inbox fails the request with 429 + Retry-After instead of parking it on
// the channel. Under overload the old blocking path accumulated one goroutine
// + request body per stalled POST with no signal to the client — now the
// client owns the retry (closed-loop senders back off, records already
// streamed stay ingested and the response says how many).
func (s *server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	//trips:allow wallclock: ingest request latency metric, not event-time logic
	start := time.Now()
	// The middleware made the sampling decision; the ingest root span covers
	// this request's parse+route work, and its context rides on every record
	// so the engine can adopt the trace. Both are inert (zero context, no
	// buffer writes) when the request is unsampled.
	rootSp := s.obs.tracer.Start(trace.FromContext(r.Context()), "ingest")
	recCtx := rootSp.Ctx()
	body := http.MaxBytesReader(w, r.Body, 64<<20)
	// The per-record closure stays bare: request-level accounting happens
	// once below, keeping the record route at zero added allocations (the
	// engine's AllocsPerRun test guards the rest of the path).
	ingest := func(rec position.Record) error { return s.p.Engine.TryIngest(rec, recCtx) }
	var (
		n   int
		err error
	)
	if strings.Contains(r.Header.Get("Content-Type"), "json") {
		n, err = position.StreamJSONL(body, ingest)
	} else {
		n, err = position.StreamCSV(body, ingest)
	}
	s.obs.ingestRecords.Add(int64(n))
	s.obs.ingestSeconds.ObserveSince(start)
	if err != nil {
		rootSp.SetErr()
		rootSp.End()
		if errors.Is(err, online.ErrBacklogged) {
			// Backpressure, not failure: don't count it as an ingest error
			// (the trace still errors — a 429 is exactly what tail sampling
			// should keep).
			s.obs.ingestRejected.Inc()
			w.Header().Set("Retry-After", ingestRetryAfter)
			http.Error(w, fmt.Sprintf("ingest backlogged (%d records ingested before the push-back); retry after %ss", n, ingestRetryAfter),
				http.StatusTooManyRequests)
			return
		}
		s.obs.ingestErrors.Inc()
		code := http.StatusBadRequest
		if errors.Is(err, online.ErrClosed) {
			code = http.StatusServiceUnavailable
		}
		http.Error(w, fmt.Sprintf("%v (%d records ingested before the error)", err, n), code)
		return
	}
	rootSp.End()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]int{"records": n})
}

// liveView is the /live/{device} response: what has sealed plus the open
// window, and the record time at which its oldest triplet can seal.
type liveView struct {
	Device      position.DeviceID   `json:"device"`
	Sealed      []semantics.Triplet `json:"sealed"`
	Provisional []semantics.Triplet `json:"provisional,omitempty"`
	Watermark   time.Time           `json:"watermark,omitzero"`
	SealAt      time.Time           `json:"sealAt,omitzero"`
	TailRecords int                 `json:"tailRecords"`
}

// handleLive serves the incrementally-built semantics of one device:
// sealed triplets come back from the warehouse (the engine's sink), the
// open window from the engine snapshot.
func (s *server) handleLive(w http.ResponseWriter, r *http.Request) {
	dev := position.DeviceID(strings.TrimPrefix(r.URL.Path, "/live/"))
	view := liveView{Device: dev}
	// Snapshot first, sealed store second: a triplet sealing between the
	// two reads then shows up in both (and is filtered below) instead of
	// in neither.
	snap, ok := s.p.Engine.Snapshot(dev)
	if ok {
		view.Provisional = snap.Provisional
		view.Watermark = snap.Watermark
		view.SealAt = snap.SealAt
		view.TailRecords = snap.TailRecords
	}
	page, err := s.p.Warehouse.Query(tripstore.QuerySpec{Device: dev})
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	for _, tr := range page.Trips {
		view.Sealed = append(view.Sealed, tr.Triplet)
	}
	if n := len(view.Sealed); n > 0 {
		lastSealed := view.Sealed[n-1].From
		for len(view.Provisional) > 0 && !view.Provisional[0].From.After(lastSealed) {
			view.Provisional = view.Provisional[1:]
		}
	}
	if !ok && view.Sealed == nil {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(view)
}

// parseTripQuery reads the warehouse query parameters shared by the
// /trips and /regions endpoints: device, region (semantic tag), regionId,
// event, since/until (RFC3339 or unix milliseconds), inferred,
// limit (default 100, capped at 1000), cursor.
func parseTripQuery(r *http.Request) (tripstore.QuerySpec, error) {
	q := r.URL.Query()
	spec := tripstore.QuerySpec{
		Device:   position.DeviceID(q.Get("device")),
		Region:   q.Get("region"),
		RegionID: dsm.RegionID(q.Get("regionId")),
		Event:    semantics.Event(q.Get("event")),
		Cursor:   q.Get("cursor"),
		Limit:    100,
	}
	if v := q.Get("since"); v != "" {
		t, err := position.ParseTime(v)
		if err != nil {
			return spec, fmt.Errorf("since: %w", err)
		}
		spec.Since = t
	}
	if v := q.Get("until"); v != "" {
		t, err := position.ParseTime(v)
		if err != nil {
			return spec, fmt.Errorf("until: %w", err)
		}
		spec.Until = t
	}
	if v := q.Get("inferred"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			return spec, fmt.Errorf("inferred: %w", err)
		}
		spec.Inferred = &b
	}
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			return spec, fmt.Errorf("limit: bad value %q", v)
		}
		spec.Limit = n
	}
	if spec.Limit > 1000 {
		spec.Limit = 1000
	}
	return spec, nil
}

func (s *server) serveTripQuery(w http.ResponseWriter, r *http.Request, spec tripstore.QuerySpec) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	page, err := s.p.Warehouse.Query(spec)
	if err != nil {
		// A closed warehouse is a server-side condition (shutdown race),
		// not a malformed request; only cursor errors are the client's.
		code := http.StatusBadRequest
		if errors.Is(err, tripstore.ErrClosed) {
			code = http.StatusServiceUnavailable
		}
		http.Error(w, err.Error(), code)
		return
	}
	if page.Trips == nil {
		page.Trips = []tripstore.Trip{} // JSON [] rather than null
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(page)
}

// handleTrips serves GET /trips: the warehouse query endpoint.
func (s *server) handleTrips(w http.ResponseWriter, r *http.Request) {
	spec, err := parseTripQuery(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.serveTripQuery(w, r, spec)
}

// handleDeviceTrips serves GET /trips/{device}: one device's warehoused
// timeline, same filter parameters as /trips.
func (s *server) handleDeviceTrips(w http.ResponseWriter, r *http.Request) {
	dev := position.DeviceID(strings.TrimPrefix(r.URL.Path, "/trips/"))
	if dev == "" || strings.Contains(string(dev), "/") {
		http.NotFound(w, r)
		return
	}
	spec, err := parseTripQuery(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	spec.Device = dev
	s.serveTripQuery(w, r, spec)
}

// handleRegionVisits serves GET /regions/{id}/visits: every trip that
// touched the region, by region ID with a semantic-tag fallback.
func (s *server) handleRegionVisits(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/regions/")
	id, action, ok := strings.Cut(rest, "/")
	if !ok || id == "" || action != "visits" {
		http.NotFound(w, r)
		return
	}
	spec, err := parseTripQuery(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// A ?device= filter narrows the visits; only the region predicates
	// are owned by the path.
	spec.RegionID, spec.Region = "", ""
	// The path segment resolves against the DSM: a region ID first, a
	// semantic tag second, so /regions/Nike/visits works as naturally as
	// /regions/shop-1F-3/visits. Resolution is model-driven (not
	// data-driven), so pagination cursors stay on one plan.
	switch {
	case s.model.Region(dsm.RegionID(id)) != nil:
		spec.RegionID = dsm.RegionID(id)
	case s.model.RegionByTag(id) != nil:
		spec.Region = id
	default:
		http.NotFound(w, r)
		return
	}
	s.serveTripQuery(w, r, spec)
}

// handleWarehouseStats serves the warehouse counters.
func (s *server) handleWarehouseStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.p.Warehouse.Stats())
}

// handleStats serves the online engine's counters.
func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.p.Engine.Stats())
}

var indexTmpl = template.Must(template.New("index").Parse(`<!DOCTYPE html>
<html><head><title>TRIPS</title></head><body>
<h1>TRIPS — Translation Results</h1>
<table border="1" cellpadding="4">
<tr><th>device</th><th>records</th><th>repairs</th><th>triplets</th><th>inferred</th><th>rec/triplet</th></tr>
{{range .Rows}}<tr>
<td><a href="/device/{{.Device}}">{{.Device}}</a></td>
<td>{{.Records}}</td><td>{{.Repairs}}</td><td>{{.Triplets}}</td>
<td>{{.Inferred}}</td><td>{{printf "%.1f" .Ratio}}</td>
</tr>{{end}}
</table></body></html>`))

type indexRow struct {
	Device   position.DeviceID
	Records  int
	Repairs  int
	Triplets int
	Inferred int
	Ratio    float64
}

func (s *server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	var rows []indexRow
	for _, dev := range s.devices {
		res := s.results[dev]
		rows = append(rows, indexRow{dev, res.Raw.Len(), res.Clean.Modified(),
			res.Final.Len(), res.Inserted, res.Conciseness.RecordsPerTriplet})
	}
	if err := indexTmpl.Execute(w, map[string]interface{}{"Rows": rows}); err != nil {
		slog.Error("render index", "error", err)
	}
}

var deviceTmpl = template.Must(template.New("device").Parse(`<!DOCTYPE html>
<html><head><title>TRIPS — {{.Device}}</title></head><body>
<p><a href="/">&larr; devices</a></p>
<h1>{{.Device}}</h1>
<p>floors:
{{range .Floors}} <a href="?floor={{.}}&hide={{$.HideParam}}">{{.}}</a>{{end}}
&nbsp; toggle:
{{range .Toggles}} <a href="?floor={{$.Floor}}&hide={{.Param}}">{{.Label}}</a>{{end}}
</p>
<div>{{.MapSVG}}</div>
<h2>Timeline</h2>
<div>{{.TimelineSVG}}</div>
<h2>Mobility semantics</h2>
<pre>{{.SemText}}</pre>
</body></html>`))

func (s *server) handleDevice(w http.ResponseWriter, r *http.Request) {
	dev := position.DeviceID(strings.TrimPrefix(r.URL.Path, "/device/"))
	res, ok := s.results[dev]
	if !ok {
		http.NotFound(w, r)
		return
	}
	v := viewer.NewView(s.model)
	v.SetSource(viewer.SourceRaw, viewer.FromPositioning(viewer.SourceRaw, res.Raw))
	v.SetSource(viewer.SourceCleaned, viewer.FromPositioning(viewer.SourceCleaned, res.Cleaned))
	v.SetSource(viewer.SourceSemantics, viewer.FromSemantics(res.Final))
	if s.truths != nil {
		if truth, ok := s.truths[dev]; ok {
			v.SetSource(viewer.SourceTruth, viewer.FromPositioning(viewer.SourceTruth, truth.Records))
		}
	}

	hidden := map[viewer.SourceKind]bool{}
	hideParam := r.URL.Query().Get("hide")
	for _, h := range strings.Split(hideParam, ",") {
		if h != "" {
			k := viewer.SourceKind(h)
			hidden[k] = true
			if v.Visible(k) {
				v.Toggle(k)
			}
		}
	}
	if f := r.URL.Query().Get("floor"); f != "" {
		if n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(f, "B"), "F")); err == nil {
			floor := dsm.FloorID(n)
			if strings.HasPrefix(f, "B") {
				floor = -floor
			}
			_ = v.SwitchFloor(floor)
		}
	}

	// Toggle links flip one source each.
	var toggles []map[string]string
	for _, kind := range v.Sources() {
		next := make([]string, 0, 4)
		//trips:commutative key collection; iteration order is erased by the sort below
		for k := range hidden {
			if k != kind {
				next = append(next, string(k))
			}
		}
		if !hidden[kind] {
			next = append(next, string(kind))
		}
		sort.Strings(next)
		label := string(kind)
		if hidden[kind] {
			label = "☐ " + label
		} else {
			label = "☑ " + label
		}
		toggles = append(toggles, map[string]string{
			"Param": strings.Join(next, ","), "Label": label,
		})
	}

	data := map[string]interface{}{
		"Device":      dev,
		"Floors":      s.model.Floors(),
		"Floor":       v.Floor(),
		"HideParam":   hideParam,
		"Toggles":     toggles,
		"MapSVG":      template.HTML(viewer.RenderSVG(v, viewer.RenderOptions{})),
		"TimelineSVG": template.HTML(viewer.RenderTimelineSVG(v, 900)),
		"SemText":     res.Final.String(),
	}
	if err := deviceTmpl.Execute(w, data); err != nil {
		slog.Error("render device view", "error", err, "device", dev)
	}
}
