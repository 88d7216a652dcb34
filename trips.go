// Package trips is a from-scratch implementation of TRIPS — "a system for
// Translating Raw Indoor Positioning data into mobility Semantics" (Li, Lu,
// Shi, Chen, Chen, Shou; PVLDB 11(12), 2018).
//
// TRIPS turns noisy, discrete indoor positioning records such as
//
//	oi, (5.1, 12.7, 3F), 1:02:05pm
//
// into concise mobility semantics such as
//
//	(stay, Adidas, 1:02:05–1:18:15pm)
//
// through three components: a Configurator (data selection rules, a
// floorplan-to-DSM Space Modeler, an Event Editor for training data), a
// Translator (a three-layer framework: cleaning against the indoor
// topology, density-based splitting + learning-based annotation, and
// Markov/MAP complementing of gaps), and a Viewer (a unified map/timeline
// rendering of every sequence involved in a translation).
//
// This package is the public facade. The System type bundles a venue model
// with an event model and the configured pipeline:
//
//	model, _ := trips.LoadDSM("mall.json")
//	sys := trips.NewSystem(model)
//	sys.Editor().Designate(trips.EventStay, seq, 0, 40)   // label segments
//	sys.Editor().Designate(trips.EventPassBy, seq, 40, 55)
//	if err := sys.Train(""); err != nil { ... }            // fit identifier
//	results := sys.Translate(dataset)                      // run pipeline
//	fmt.Println(results[0].Final)                          // Table-1 output
//
// Substrate helpers (the simulator standing in for the paper's proprietary
// mall dataset, the floorplan tracer, the viewer) are re-exported from
// their internal packages.
package trips

import (
	"fmt"
	"image"

	"trips/internal/analytics"
	"trips/internal/annotation"
	"trips/internal/config"
	"trips/internal/core"
	"trips/internal/dsm"
	"trips/internal/events"
	"trips/internal/floorplan"
	"trips/internal/geom"
	"trips/internal/online"
	"trips/internal/pipeline"
	"trips/internal/position"
	"trips/internal/semantics"
	"trips/internal/simul"
	"trips/internal/storage"
	"trips/internal/tripstore"
	"trips/internal/viewer"
)

// Re-exported core types. Aliases keep the internal packages as the single
// definition while giving downstream users one import path.
type (
	// Model is the Digital Space Model of a venue.
	Model = dsm.Model
	// Entity is one indoor entity (room, door, wall, staircase, ...).
	Entity = dsm.Entity
	// SemanticRegion is a tagged region ("Nike", "Center Hall").
	SemanticRegion = dsm.SemanticRegion
	// Location is a point pinned to a floor.
	Location = dsm.Location
	// FloorID numbers floors (1 = ground, negative = basement).
	FloorID = dsm.FloorID
	// Point is a planar coordinate in meters.
	Point = geom.Point

	// Record is one raw positioning record.
	Record = position.Record
	// Sequence is a device's time-ordered positioning records.
	Sequence = position.Sequence
	// Dataset groups sequences per device.
	Dataset = position.Dataset
	// DeviceID identifies a positioned object.
	DeviceID = position.DeviceID

	// OnlineEngine is the streaming translation engine: sharded
	// per-device sessions running the three-layer pipeline incrementally.
	OnlineEngine = online.Engine
	// OnlineConfig parameterizes the online engine.
	OnlineConfig = online.Config
	// OnlineResult is one finalized triplet leaving the online engine.
	OnlineResult = online.Emission
	// OnlineEmitter is the online engine's output sink.
	OnlineEmitter = online.Emitter
	// OnlineStats snapshots the online engine's counters and shard lag.
	OnlineStats = online.Stats
	// OnlineSnapshot is the live view of one device's session.
	OnlineSnapshot = online.Snapshot

	// Warehouse is the queryable trip warehouse: indexed, durable storage
	// for translated trips behind the batch and online engines.
	Warehouse = tripstore.Warehouse
	// Trip is one warehoused mobility-semantics triplet.
	Trip = tripstore.Trip
	// TripQuery selects warehoused trips by device, region, time range,
	// and semantic labels.
	TripQuery = tripstore.QuerySpec
	// TripPage is one page of warehouse query results.
	TripPage = tripstore.Page
	// WarehouseStats describes the warehouse contents.
	WarehouseStats = tripstore.Stats

	// AnalyticsEngine is the incremental mobility-analytics engine:
	// materialized views (occupancy, flows, dwell, windowed
	// popularity) over the sealed-triplet stream, with live subscriptions
	// and durable view snapshots (SaveSnapshot / LoadSnapshot /
	// StartAutoSnapshot).
	AnalyticsEngine = analytics.Engine
	// AnalyticsConfig parameterizes the analytics engine.
	AnalyticsConfig = analytics.Config
	// AnalyticsStoreOptions locates an engine's durable view snapshot on a
	// backend store.
	AnalyticsStoreOptions = analytics.StoreOptions
	// AnalyticsStats are the analytics engine's diagnostic counters.
	AnalyticsStats = analytics.Stats
	// BackendStore is the JSON document store the durability layers ride
	// on (the warehouse's segment log, the analytics view snapshots).
	BackendStore = storage.Store
	// AnalyticsSnapshot is the canonical full dump of every analytics view.
	AnalyticsSnapshot = analytics.Snapshot
	// AnalyticsDelta is one view update pushed to live subscribers.
	AnalyticsDelta = analytics.Delta
	// AnalyticsSubscription is one live view-delta subscriber.
	AnalyticsSubscription = analytics.Subscription
	// RegionOccupancy is one row of the live occupancy view.
	RegionOccupancy = analytics.RegionOccupancy
	// RegionFlow is one directed region→region transition count.
	RegionFlow = analytics.Flow
	// DwellStats is the dwell-time summary of one region.
	DwellStats = analytics.DwellStats
	// RegionCount is one row of the windowed popularity (top-k) view.
	RegionCount = analytics.RegionCount

	// Semantics is a device's mobility semantics sequence.
	Semantics = semantics.Sequence
	// Triplet is one mobility semantics (event, region, period).
	Triplet = semantics.Triplet
	// Event names a mobility event pattern.
	Event = semantics.Event
	// MatchReport scores generated semantics against ground truth.
	MatchReport = semantics.MatchReport

	// Config is the declarative Configurator document.
	Config = config.Config
	// Result is the per-device translation output.
	Result = core.Result
	// View is the Viewer state for one device.
	View = viewer.View
	// Editor is the Event Editor.
	Editor = events.Editor
	// LabeledSegment is one designated training segment.
	LabeledSegment = events.LabeledSegment
	// EventPattern is a user-defined mobility event pattern.
	EventPattern = events.Pattern

	// Canvas is the Space Modeler drawing surface.
	Canvas = floorplan.Canvas
	// EntityKind classifies indoor entities.
	EntityKind = dsm.EntityKind
	// RegionID identifies a semantic region.
	RegionID = dsm.RegionID

	// MallSpec configures the synthetic mall generator.
	MallSpec = simul.MallSpec
	// Visit is one itinerary leg of the simulator.
	Visit = simul.Visit
	// Sim is the Wi-Fi positioning simulator.
	Sim = simul.Sim
	// Truth is a simulated device's ground truth.
	Truth = simul.Truth
	// ErrorModel is the Wi-Fi error model of the simulator.
	ErrorModel = simul.ErrorModel
)

// Built-in mobility events.
const (
	EventStay    = semantics.EventStay
	EventPassBy  = semantics.EventPassBy
	EventUnknown = semantics.EventUnknown
)

// Indoor entity kinds.
const (
	KindRoom      = dsm.KindRoom
	KindHallway   = dsm.KindHallway
	KindDoor      = dsm.KindDoor
	KindWall      = dsm.KindWall
	KindStaircase = dsm.KindStaircase
	KindElevator  = dsm.KindElevator
	KindObstacle  = dsm.KindObstacle
)

// Viewer source kinds.
const (
	SourceRaw       = viewer.SourceRaw
	SourceCleaned   = viewer.SourceCleaned
	SourceTruth     = viewer.SourceTruth
	SourceSemantics = viewer.SourceSemantics
)

// Pt is shorthand for a Point.
func Pt(x, y float64) Point { return geom.Pt(x, y) }

// LoadDSM reads and freezes a Digital Space Model from a JSON file.
func LoadDSM(path string) (*Model, error) { return dsm.Load(path) }

// LoadDataset reads a positioning dataset from a .csv or .jsonl file.
func LoadDataset(path string) (*Dataset, error) { return position.LoadFile(path) }

// NewDataset returns an empty positioning dataset.
func NewDataset() *Dataset { return position.NewDataset() }

// OnlineEmitterFunc adapts a callback to the online engine's sink
// interface.
func OnlineEmitterFunc(f func(OnlineResult)) OnlineEmitter { return online.EmitterFunc(f) }

// NewWarehouse returns a memory-only trip warehouse.
func NewWarehouse() (*Warehouse, error) { return tripstore.New(tripstore.Options{}) }

// OpenWarehouse opens a durable trip warehouse rooted at a backend store
// directory, replaying the persisted segment log so it answers queries
// exactly as it did before the restart. An empty dir keeps the warehouse
// in memory.
func OpenWarehouse(dir string) (*Warehouse, error) {
	return pipeline.OpenWarehouse(dir, tripstore.Options{})
}

// NewAnalytics returns an incremental mobility-analytics engine with empty
// views. Attach it to a System (AttachAnalytics) or feed it directly via
// Ingest / Bootstrap / the Emitter tee.
func NewAnalytics(cfg AnalyticsConfig) *AnalyticsEngine { return analytics.New(cfg) }

// OpenBackendStore opens (creating if necessary) a backend document store
// rooted at dir — the handle AnalyticsStoreOptions and the warehouse log
// ride on.
func OpenBackendStore(dir string) (*BackendStore, error) { return storage.Open(dir) }

// OpenAnalytics returns a durable analytics engine rooted at dir: the
// latest persisted view snapshot (if any, and compatible with cfg) loads
// into the views, so a subsequent AttachAnalytics / Bootstrap over the
// warehouse replays only the tail past the snapshot's fold frontiers —
// boot cost O(tail), not O(stored trips). An incompatible or corrupt
// snapshot is logged and ignored (the engine starts empty and the next
// Bootstrap is a full replay). The returned store locates the same
// snapshot for SaveSnapshot / StartAutoSnapshot; pass the warehouse's Flush
// as AnalyticsStoreOptions.Sync so snapshots never cover trips the trip log
// hasn't made durable.
func OpenAnalytics(cfg AnalyticsConfig, dir string) (*AnalyticsEngine, *BackendStore, error) {
	return pipeline.OpenViews(cfg, dir)
}

// SaveDataset writes a dataset to a .csv or .jsonl file.
func SaveDataset(path string, ds *Dataset) error { return position.SaveFile(path, ds) }

// LoadConfig reads and validates a Configurator document.
func LoadConfig(path string) (*Config, error) { return config.Load(path) }

// NewCanvas opens a Space Modeler drawing canvas for a floor.
func NewCanvas(floor FloorID) *Canvas { return floorplan.NewCanvas(floor) }

// TraceFloorplan extracts a Canvas from a floorplan image (dark = wall,
// light = free space, mid-gray = door openings).
func TraceFloorplan(img image.Image, floor FloorID) (*Canvas, error) {
	return floorplan.Trace(img, floor, floorplan.DefaultTraceOptions())
}

// BuildDSM compiles drawn canvases into a frozen model.
func BuildDSM(name string, canvases ...*Canvas) (*Model, error) {
	return floorplan.Build(name, floorplan.BuildOptions{}, canvases...)
}

// BuildMall generates the synthetic shopping-mall venue that substitutes
// for the paper's proprietary dataset venue.
func BuildMall(spec MallSpec) (*Model, error) { return simul.BuildMall(spec) }

// DefaultMallSpec mirrors the paper's 7-floor mall.
func DefaultMallSpec() MallSpec { return simul.DefaultMallSpec() }

// NewSim creates a deterministic shopper/Wi-Fi simulator over a venue.
func NewSim(m *Model, seed int64) *Sim { return simul.NewSim(m, seed) }

// DefaultErrorModel returns the standard Wi-Fi error characteristics.
func DefaultErrorModel() ErrorModel { return simul.DefaultErrorModel() }

// Compare scores a generated semantics sequence against ground truth.
func Compare(got, want *Semantics) MatchReport {
	return semantics.Compare(got, want, 0)
}

// System bundles a venue with an Event Editor, a trained identification
// model and the translation pipeline. Create one per venue, label training
// data (or import saved Event Editor state), Train, then Translate.
type System struct {
	model  *Model
	editor *events.Editor
	em     *annotation.EventModel
	tr     *core.Translator
	wh     *tripstore.Warehouse
	an     *analytics.Engine

	// Pipeline configuration applied at Train time.
	CleanerConfig      config.CleanerConfig
	AnnotatorConfig    config.AnnotatorConfig
	ComplementorConfig config.ComplementorConfig
}

// NewSystem creates a System over a frozen model with a fresh Event Editor
// (stay and pass-by patterns predefined).
func NewSystem(m *Model) *System {
	return &System{model: m, editor: events.NewEditor()}
}

// Model returns the venue model.
func (s *System) Model() *Model { return s.model }

// Editor returns the Event Editor for defining patterns and designating
// training segments.
func (s *System) Editor() *Editor { return s.editor }

// SetEditor replaces the editor (e.g. with state loaded from the backend
// store).
func (s *System) SetEditor(e *Editor) { s.editor = e }

// AttachWarehouse connects a trip warehouse to the system: every batch
// Translate result ingests into it, and online engines created afterwards
// fan their sealed triplets into it before reaching the configured
// emitter. Pass nil to detach.
func (s *System) AttachWarehouse(w *Warehouse) { s.wh = w }

// Warehouse returns the attached trip warehouse, or nil.
func (s *System) Warehouse() *Warehouse { return s.wh }

// AttachAnalytics connects an analytics engine to the system: every batch
// Translate result folds into its views, and online engines created
// afterwards tee their sealed triplets through it. When a warehouse is
// already attached, the engine first bootstraps from it — replaying the
// persisted trips so a cold start over an existing store reaches the same
// views live ingestion would have built. The bootstrap is frontier-bounded:
// an engine pre-populated from a durable snapshot (OpenAnalytics) replays
// only the warehouse tail past each device's fold frontier. Pass nil to
// detach.
//
// The views are an incremental, order-dependent fold: a later Translate
// that backfills a device's past (new trips starting behind that device's
// analytics frontier) still lands in the warehouse, but the fold drops it
// (counted in AnalyticsStats.OutOfOrder, which raises RebuildRecommended).
// Re-translating trips the warehouse already holds is not a backfill.
// After a backfill, AnalyticsEngine.Rebuild re-derives the views from the
// warehouse in place: subscribers and running online engines stay attached.
func (s *System) AttachAnalytics(a *AnalyticsEngine) error {
	if a != nil && s.wh != nil {
		if err := a.Bootstrap(s.wh); err != nil {
			return err
		}
	}
	s.an = a
	return nil
}

// Analytics returns the attached analytics engine, or nil.
func (s *System) Analytics() *AnalyticsEngine { return s.an }

// Train fits the identification model on the editor's training set using
// the named classifier ("" = gaussian-nb, or logistic-regression /
// decision-tree) and assembles the pipeline.
func (s *System) Train(classifier string) error {
	if classifier != "" {
		s.AnnotatorConfig.Classifier = classifier
	}
	em, err := core.TrainEventModel(s.editor.TrainingSet(), s.AnnotatorConfig)
	if err != nil {
		return fmt.Errorf("trips: train: %w", err)
	}
	tr, err := core.NewTranslator(s.model, em, s.CleanerConfig, s.AnnotatorConfig, s.ComplementorConfig)
	if err != nil {
		return err
	}
	s.em, s.tr = em, tr
	return nil
}

// Trained reports whether Train has succeeded.
func (s *System) Trained() bool { return s.tr != nil }

// Translate runs the full two-phase pipeline over the dataset. It requires
// a successful Train. With a warehouse attached, every result is stored in
// it before returning, and an attached analytics engine folds only the
// trips the warehouse had not held: translating trips it already stores
// changes neither. Without a warehouse the engine folds every result.
func (s *System) Translate(ds *Dataset) ([]Result, error) {
	if s.tr == nil {
		return nil, fmt.Errorf("trips: Translate before Train")
	}
	return pipeline.Translate(s.tr, ds, s.wh, s.an)
}

// NewOnline starts a streaming translation engine over the trained
// pipeline. It requires a successful Train. Feed the engine with Ingest
// (or TryIngest) and Close it to seal every open session. With a
// warehouse or analytics engine attached, sealed triplets fan through them
// before reaching cfg.Emitter (which may then be nil: the attached
// subsystems become the sink). The warehouse tee runs first so the
// analytics fold always sees a trip its durable twin has stored.
func (s *System) NewOnline(cfg OnlineConfig) (*OnlineEngine, error) {
	if s.tr == nil {
		return nil, fmt.Errorf("trips: NewOnline before Train")
	}
	cfg.Emitter = pipeline.Tee(s.wh, s.an, cfg.Emitter)
	return s.tr.NewOnline(cfg)
}

// TranslateSequence runs the pipeline on one sequence without cross-device
// knowledge (the Complementor falls back to the uniform topology prior).
func (s *System) TranslateSequence(seq *Sequence) (Result, error) {
	if s.tr == nil {
		return Result{}, fmt.Errorf("trips: Translate before Train")
	}
	return s.tr.TranslateOne(seq, nil), nil
}

// NewView assembles a Viewer over a translation result, installing the
// raw, cleaned and semantics sources (plus ground truth when available).
func (s *System) NewView(r Result, truth *Truth) *View {
	v := viewer.NewView(s.model)
	v.SetSource(viewer.SourceRaw, viewer.FromPositioning(viewer.SourceRaw, r.Raw))
	v.SetSource(viewer.SourceCleaned, viewer.FromPositioning(viewer.SourceCleaned, r.Cleaned))
	v.SetSource(viewer.SourceSemantics, viewer.FromSemantics(r.Final))
	if truth != nil {
		v.SetSource(viewer.SourceTruth, viewer.FromPositioning(viewer.SourceTruth, truth.Records))
	}
	return v
}

// RenderMapSVG renders a view's current floor as an SVG document.
func RenderMapSVG(v *View) string {
	return viewer.RenderSVG(v, viewer.RenderOptions{})
}

// RenderTimelineSVG renders a view's timeline as an SVG document.
func RenderTimelineSVG(v *View) string {
	return viewer.RenderTimelineSVG(v, 900)
}
