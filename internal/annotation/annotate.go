package annotation

import (
	"fmt"
	"sort"
	"time"

	"trips/internal/dsm"
	"trips/internal/events"
	"trips/internal/geom"
	"trips/internal/intern"
	"trips/internal/position"
	"trips/internal/semantics"
)

// EventModel is the learning-based identification model: a classifier over
// movement features together with the scaler and the label↔event mapping.
// It is trained from the Event Editor's designated segments.
type EventModel struct {
	clf    Classifier
	scaler *Scaler
	labels []semantics.Event
}

// TrainEventModel fits the classifier on the training set. The classifier
// choice is the caller's (Gaussian NB by default elsewhere); every defined
// event needs at least one designated segment. split is the splitting the
// model will be served under: each segment's density feature is derived
// with it, so the feature means at training what it means at annotation.
func TrainEventModel(ts events.TrainingSet, clf Classifier, split SplitConfig) (*EventModel, error) {
	if len(ts.Segments) == 0 {
		return nil, errNoData
	}
	byEvent := ts.ByEvent()
	labels := make([]semantics.Event, 0, len(byEvent))
	//trips:commutative key collection; iteration order is erased by the sort below
	for ev := range byEvent {
		labels = append(labels, ev)
	}
	sort.Slice(labels, func(i, j int) bool { return labels[i] < labels[j] })
	if len(labels) < 2 {
		return nil, fmt.Errorf("annotation: need segments for ≥2 events, have %d", len(labels))
	}
	index := make(map[semantics.Event]int, len(labels))
	for i, ev := range labels {
		index[ev] = i
	}

	split = split.resolved()
	var X [][]float64
	var y []int
	for _, seg := range ts.Segments {
		X = append(X, FeaturizeRecords(seg.Records, segmentDense(seg.Records, split)))
		y = append(y, index[seg.Event])
	}
	scaler := FitScaler(X)
	if err := clf.Train(scaler.TransformAll(X), y); err != nil {
		return nil, err
	}
	return &EventModel{clf: clf, scaler: scaler, labels: labels}, nil
}

// segmentDense derives the density flag for a training segment by running
// the splitter's density mask under split (resolved) and taking the
// majority.
func segmentDense(recs []position.Record, split SplitConfig) bool {
	if len(recs) == 0 {
		return false
	}
	var cols position.Columns
	cols.Sync(recs, 0, split.clockWindow())
	mask := make([]bool, len(recs))
	denseMaskRange(&cols, split, mask, 0)
	cnt := 0
	for _, d := range mask {
		if d {
			cnt++
		}
	}
	return cnt*2 >= len(mask)
}

// Identify classifies a snippet, returning the event and the model's
// confidence (the winning class probability).
//
//trips:api bench/ is a separate module and calls it
func (m *EventModel) Identify(sn Snippet) (semantics.Event, float64) {
	return m.identify(new(Scratch), sn)
}

// Scratch holds reusable buffers for repeated identification calls — one
// per caller, not safe for concurrent use.
type Scratch struct {
	feat   []float64
	scaled []float64
	pts    []geom.Point
	scores []float64
}

// identify is Identify with caller-owned scratch buffers, so a caller
// classifying snippets in a loop (the annotator's triplet stage) does not
// reallocate feature vectors on every call.
func (m *EventModel) identify(sc *Scratch, sn Snippet) (semantics.Event, float64) {
	sc.feat = zeroed(sc.feat, NumFeatures)
	featurizeInto(sc.feat, &sc.pts, sn.Records, sn.Dense)
	sc.scaled = zeroed(sc.scaled, NumFeatures)
	label, probs := m.predict(sc, m.scaler.transformInto(sc.scaled, sc.feat))
	conf := 0.0
	if label < len(probs) {
		conf = probs[label]
	}
	return m.labels[label], conf
}

// predict routes through the classifier's scratch-buffer fast path when it
// has one: the probability vector then aliases sc.scores instead of being
// allocated per snippet. Logistic regression and the decision tree have
// none and allocate.
func (m *EventModel) predict(sc *Scratch, x []float64) (int, []float64) {
	if sp, ok := m.clf.(scratchPredictor); ok {
		return sp.predictScratch(x, &sc.scores)
	}
	return m.clf.Predict(x)
}

// zeroed returns buf resized to n entries, all zero.
func zeroed(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// DisplayPolicy selects the triplet display point (paper footnote 1: "the
// temporally middle or the spatially central positioning location according
// to the user configuration").
type DisplayPolicy string

// Display policies.
const (
	DisplayTemporalMiddle DisplayPolicy = "temporal-middle"
	DisplaySpatialCentral DisplayPolicy = "spatial-central"
)

// Config parameterizes the Annotator.
type Config struct {
	Split   SplitConfig
	Display DisplayPolicy
	// MinConfidence demotes identifications below the threshold to
	// EventUnknown rather than asserting a wrong event (0 keeps all).
	MinConfidence float64
	// MergeGap consolidates consecutive triplets that share the event and
	// the region and are separated by at most this gap — positioning noise
	// fragments one dwell into several snippets, and the consolidated
	// triplet is the semantics the analyst expects. Zero disables.
	MergeGap time.Duration
}

// DefaultConfig returns the standard annotator configuration.
func DefaultConfig() Config {
	return Config{Split: DefaultSplitConfig(), Display: DisplayTemporalMiddle, MergeGap: time.Minute}
}

// Annotator extracts mobility semantics from cleaned positioning sequences:
// density-based splitting, then per-snippet event identification and
// semantic-region matching.
type Annotator struct {
	Model  *dsm.Model
	Events *EventModel
	Cfg    Config
}

// NewAnnotator builds an annotator over a frozen DSM and a trained model.
// An unusable split configuration is replaced by the defaults, so Cfg.Split
// is the splitting every annotation runs.
func NewAnnotator(m *dsm.Model, em *EventModel, cfg Config) *Annotator {
	cfg.Split = cfg.Split.resolved()
	if cfg.Display == "" {
		cfg.Display = DisplayTemporalMiddle
	}
	return &Annotator{Model: m, Events: em, Cfg: cfg}
}

// regionSnippet is a snippet with its spatial annotation resolved.
type regionSnippet struct {
	sn  Snippet
	tag string
	rid dsm.RegionID
}

// Annotate translates a cleaned sequence into its original (pre-complement)
// mobility semantics sequence by running a fresh Incremental cold (see
// Incremental.Annotate for the stages). The result is the caller's: an
// exact-size copy that shares no buffer with the discarded cache.
//
// For re-annotating a sequence that grows between calls, NewIncremental
// produces identical output in time proportional to the new suffix.
func (a *Annotator) Annotate(s *position.Sequence) *semantics.Sequence {
	out := semantics.NewSequence(string(s.Device))
	if ts := a.NewIncremental().Annotate(s, 0).Triplets; len(ts) > 0 {
		out.Triplets = append(make([]semantics.Triplet, 0, len(ts)), ts...)
	}
	return out
}

// labelRecords fills labels[from:] with the interned index of the semantic
// region covering each record (intern.None outside every region), growing
// labels to s.Len(). One shared label array feeds both the region-refinement
// smoothing and the majority vote of the spatial annotation. Region indexes
// are assigned in sorted-RegionID order, so comparing indexes compares IDs.
func (a *Annotator) labelRecords(s *position.Sequence, labels []intern.ID, from int) []intern.ID {
	n := s.Len()
	if cap(labels) < n {
		// Doubled-capacity growth: the incremental annotator calls this on
		// a tail that grows a few records per flush.
		grown := make([]intern.ID, n, 2*n)
		copy(grown, labels[:from])
		labels = grown
	} else {
		labels = labels[:n]
	}
	for i := from; i < n; i++ {
		r := s.Records[i]
		labels[i] = a.Model.RegionIdxAt(r.P, r.Floor)
	}
	return labels
}

// refineScratch holds the reusable buffers of the refine/match stage — the
// smoothing, run, and vote storage the incremental annotator would otherwise
// reallocate for every snippet it re-refines on every flush.
type refineScratch struct {
	smoothed []intern.ID
	runs     []labelRun
	cuts     []int
	votes    []int32     // per region index; cleared via touched after use
	touched  []intern.ID // region indexes dirtied in votes
}

// labelRun is a half-open run [start, end) of identical smoothed labels.
type labelRun struct{ start, end int }

// refineSnippet splits one snippet at persistent semantic-region changes:
// two adjacent dwells can share one density cluster (noise bridges
// neighboring shops), but their records vote for different regions. A
// boundary is kept only when both sides hold their region for at least
// minRun records, so single noisy strays do not fragment snippets. Each
// resulting sub-snippet is appended to out with its spatial annotation
// resolved.
func (a *Annotator) refineSnippet(s *position.Sequence, sn Snippet, labels []intern.ID, out []regionSnippet, rs *refineScratch) []regionSnippet {
	const minRun = 5
	emit := func(sub Snippet) []regionSnippet {
		tag, rid := a.matchRegion(sub, labels, rs)
		return append(out, regionSnippet{sn: sub, tag: tag, rid: rid})
	}
	if len(sn.Records) < 2*minRun {
		return emit(sn)
	}
	// Per-record region labels, majority-smoothed over a 5-wide window so
	// boundary noise does not shred runs.
	raw := labels[sn.First : sn.Last+1]
	if cap(rs.smoothed) < len(raw) {
		rs.smoothed = make([]intern.ID, len(raw))
	}
	smoothed := rs.smoothed[:len(raw)]
	for i := range raw {
		lo, hi := i-2, i+3
		if lo < 0 {
			lo = 0
		}
		if hi > len(raw) {
			hi = len(raw)
		}
		// At most five labels in the window: count the distinct ones in two
		// fixed arrays instead of a map.
		var wl [5]intern.ID
		var wc [5]int
		nw := 0
		for _, l := range raw[lo:hi] {
			j := 0
			for ; j < nw; j++ {
				if wl[j] == l {
					wc[j]++
					break
				}
			}
			if j == nw {
				wl[nw], wc[nw] = l, 1
				nw++
			}
		}
		// Deterministic majority: the record's own label wins ties it
		// participates in, otherwise the smallest index does — which is the
		// smallest region ID, since interning is in sorted-ID order.
		best := raw[i]
		bestCnt := 0
		for j := 0; j < nw; j++ {
			if wl[j] == best {
				bestCnt = wc[j]
				break
			}
		}
		for j := 0; j < nw; j++ {
			if l, c := wl[j], wc[j]; c > bestCnt || (c == bestCnt && best != raw[i] && l < best) {
				best, bestCnt = l, c
			}
		}
		smoothed[i] = best
	}
	// Runs of identical smoothed labels; short runs merge backward.
	runs := rs.runs[:0]
	start := 0
	for i := 1; i <= len(smoothed); i++ {
		if i < len(smoothed) && smoothed[i] == smoothed[start] {
			continue
		}
		if i-start < minRun && len(runs) > 0 {
			runs[len(runs)-1].end = i
		} else {
			runs = append(runs, labelRun{start, i})
		}
		start = i
	}
	rs.runs = runs // keep the full backing: the head-merge reslice below is local
	// A leading short run merges forward.
	if len(runs) > 1 && runs[0].end-runs[0].start < minRun {
		runs[1].start = runs[0].start
		runs = runs[1:]
	}
	if len(runs) < 2 {
		return emit(sn)
	}
	cuts := rs.cuts[:0]
	for _, r := range runs {
		cuts = append(cuts, r.start)
	}
	cuts = append(cuts, len(sn.Records))
	rs.cuts = cuts
	for c := 1; c < len(cuts); c++ {
		lo, hi := cuts[c-1], cuts[c]-1
		out = emit(Snippet{
			First:   sn.First + lo,
			Last:    sn.First + hi,
			Records: s.Records[sn.First+lo : sn.First+hi+1],
			Dense:   sn.Dense,
		})
	}
	return out
}

// consolidateInto merges consecutive refined snippets that share the event-
// relevant identity (tag, region, density) and sit within MergeGap of each
// other, appending into groups so the incremental annotator can reuse one
// buffer across flushes.
func (a *Annotator) consolidateInto(s *position.Sequence, refined, groups []regionSnippet) []regionSnippet {
	for _, g := range refined {
		if n := len(groups); a.Cfg.MergeGap > 0 && n > 0 {
			prev := &groups[n-1]
			gap := g.sn.Records[0].At.Sub(prev.sn.Records[len(prev.sn.Records)-1].At)
			if prev.tag == g.tag && prev.rid == g.rid && prev.sn.Dense == g.sn.Dense && gap <= a.Cfg.MergeGap {
				prev.sn = joinSnippets(s, prev.sn, g.sn)
				continue
			}
		}
		groups = append(groups, g)
	}
	return groups
}

// annotateSnippet builds one triplet from a region-resolved snippet, with
// sc's reusable buffers for the feature extraction.
func (a *Annotator) annotateSnippet(g regionSnippet, sc *Scratch) semantics.Triplet {
	sn := g.sn
	ev, conf := a.Events.identify(sc, sn)
	if a.Cfg.MinConfidence > 0 && conf < a.Cfg.MinConfidence {
		ev = semantics.EventUnknown
	}
	disp, floor := a.displayPoint(sn, sc)
	return semantics.Triplet{
		Event:      ev,
		Region:     g.tag,
		RegionID:   g.rid,
		From:       sn.Records[0].At,
		To:         sn.Records[len(sn.Records)-1].At,
		FirstIdx:   sn.First,
		LastIdx:    sn.Last,
		Display:    disp,
		Floor:      floor,
		Confidence: conf,
	}
}

// matchRegion makes the spatial annotation: the semantic region covering the
// majority of the snippet's records (labels holds the per-record interned
// region indexes for the whole sequence). When no record falls in any
// region, the walkable partition of the snippet medoid names the annotation
// (so the triplet is still localized, just not semantically tagged).
func (a *Annotator) matchRegion(sn Snippet, labels []intern.ID, rs *refineScratch) (string, dsm.RegionID) {
	if n := a.Model.NumRegions(); len(rs.votes) < n {
		rs.votes = make([]int32, n)
	}
	votes, touched := rs.votes, rs.touched[:0]
	for _, l := range labels[sn.First : sn.Last+1] {
		if l == intern.None {
			continue
		}
		if votes[l] == 0 {
			touched = append(touched, l)
		}
		votes[l]++
	}
	rs.touched = touched
	if len(touched) > 0 {
		// Highest vote; ties resolve to the smallest region index — the
		// lexicographically first ID, since interning is in sorted-ID order.
		best := touched[0]
		for _, id := range touched[1:] {
			if votes[id] > votes[best] || (votes[id] == votes[best] && id < best) {
				best = id
			}
		}
		for _, id := range touched {
			votes[id] = 0
		}
		r := a.Model.RegionByIdx(best)
		return r.Tag, r.ID
	}
	// Fall back to the medoid's partition.
	p, f := a.medoid(sn, nil)
	if e := a.Model.Locate(p, f); e != nil {
		if e.Name != "" {
			return e.Name, ""
		}
		return string(e.ID), ""
	}
	return "Unknown", ""
}

// displayPoint picks the representative point per the configured policy.
func (a *Annotator) displayPoint(sn Snippet, sc *Scratch) (geom.Point, dsm.FloorID) {
	switch a.Cfg.Display {
	case DisplaySpatialCentral:
		return a.medoid(sn, &sc.pts)
	default:
		r := sn.Records[len(sn.Records)/2]
		return r.P, r.Floor
	}
}

// medoid returns the record location closest to the snippet centroid,
// borrowing *buf as point scratch when the caller brought one.
func (a *Annotator) medoid(sn Snippet, buf *[]geom.Point) (geom.Point, dsm.FloorID) {
	var local []geom.Point
	if buf == nil {
		buf = &local
	}
	pts := *buf
	if cap(pts) < len(sn.Records) {
		pts = make([]geom.Point, len(sn.Records))
	} else {
		pts = pts[:len(sn.Records)]
	}
	*buf = pts
	for i, r := range sn.Records {
		pts[i] = r.P
	}
	c := geom.Centroid(pts)
	best := 0
	bestD := pts[0].Dist2(c)
	for i := 1; i < len(pts); i++ {
		if d := pts[i].Dist2(c); d < bestD {
			best, bestD = i, d
		}
	}
	return sn.Records[best].P, sn.Records[best].Floor
}
