// Package events implements the Event Editor module of the TRIPS
// Configurator.
//
// The Event Editor "helps users work out the training data for the model
// that identifies the mobility events in the translation. It allows users to
// define mobility event patterns, and designate each defined pattern the
// corresponding positioning sequence segments on the map view. The
// designated data segments will be used to train a learning-based model"
// (paper Sec. 2).
//
// The package holds the pattern catalog, the labeled segments, and the
// training-set assembly, including JSON persistence so patterns and labels
// configured once are "stored in the backend for the reuse in other
// translation tasks in the same indoor space" (paper Sec. 4).
package events

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"trips/internal/position"
	"trips/internal/semantics"
)

// Pattern is a user-defined mobility event pattern. Description is free
// text shown in the editor; MinDuration/MaxDuration give the editor's
// plausibility hints when designating segments (zero means unconstrained).
type Pattern struct {
	Event       semantics.Event `json:"event"`
	Description string          `json:"description,omitempty"`
	MinDuration time.Duration   `json:"minDuration,omitempty"`
	MaxDuration time.Duration   `json:"maxDuration,omitempty"`
}

// LabeledSegment is a designated positioning-sequence segment carrying the
// pattern it exemplifies — one unit of training data.
type LabeledSegment struct {
	Event   semantics.Event   `json:"event"`
	Device  position.DeviceID `json:"device"`
	Records []position.Record `json:"records"`
}

// Editor manages patterns and labeled segments.
type Editor struct {
	patterns map[semantics.Event]Pattern
	segments []LabeledSegment
}

// NewEditor returns an editor preloaded with the built-in stay and pass-by
// patterns the paper's examples use.
func NewEditor() *Editor {
	e := &Editor{patterns: make(map[semantics.Event]Pattern)}
	e.DefinePattern(Pattern{
		Event:       semantics.EventStay,
		Description: "object remains within one or multiple semantic regions",
		MinDuration: 2 * time.Minute,
	})
	e.DefinePattern(Pattern{
		Event:       semantics.EventPassBy,
		Description: "object passes through a semantic region without dwelling",
		MaxDuration: 5 * time.Minute,
	})
	return e
}

// DefinePattern adds or replaces a pattern.
func (e *Editor) DefinePattern(p Pattern) { e.patterns[p.Event] = p }

// Patterns returns all patterns sorted by event name.
func (e *Editor) Patterns() []Pattern {
	out := make([]Pattern, 0, len(e.patterns))
	//trips:commutative pattern collection; iteration order is erased by the sort below
	for _, p := range e.patterns {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Event < out[j].Event })
	return out
}

// Designate labels the records [from, to) of the sequence as an example of
// the event's pattern — the editor action of selecting a segment on the map
// view. It rejects unknown events, empty ranges and segments that violate
// the pattern's duration hints.
//
//trips:api README's quickstart shows it; the editor's interactive labeling step
func (e *Editor) Designate(ev semantics.Event, s *position.Sequence, from, to int) error {
	p, ok := e.patterns[ev]
	if !ok {
		return fmt.Errorf("events: undefined pattern %q", ev)
	}
	if from < 0 || to > s.Len() || from >= to {
		return fmt.Errorf("events: bad segment range [%d, %d) of %d", from, to, s.Len())
	}
	seg := s.Records[from:to]
	dur := seg[len(seg)-1].At.Sub(seg[0].At)
	if p.MinDuration > 0 && dur < p.MinDuration {
		return fmt.Errorf("events: segment %s shorter than pattern minimum %s", dur, p.MinDuration)
	}
	if p.MaxDuration > 0 && dur > p.MaxDuration {
		return fmt.Errorf("events: segment %s longer than pattern maximum %s", dur, p.MaxDuration)
	}
	cp := make([]position.Record, len(seg))
	copy(cp, seg)
	e.segments = append(e.segments, LabeledSegment{Event: ev, Device: s.Device, Records: cp})
	return nil
}

// AddSegment appends a pre-built labeled segment (programmatic training
// data, e.g. from the simulator's ground truth).
func (e *Editor) AddSegment(seg LabeledSegment) error {
	if _, ok := e.patterns[seg.Event]; !ok {
		return fmt.Errorf("events: undefined pattern %q", seg.Event)
	}
	if len(seg.Records) == 0 {
		return fmt.Errorf("events: empty segment")
	}
	e.segments = append(e.segments, seg)
	return nil
}

// TrainingSet groups the labeled segments per event, the shape the
// identification model trains on.
type TrainingSet struct {
	Segments []LabeledSegment `json:"segments"`
}

// ByEvent returns the segments grouped per event.
func (ts TrainingSet) ByEvent() map[semantics.Event][]LabeledSegment {
	out := make(map[semantics.Event][]LabeledSegment)
	for _, s := range ts.Segments {
		out[s.Event] = append(out[s.Event], s)
	}
	return out
}

// Counts returns the number of segments per event, for editor display.
func (ts TrainingSet) Counts() map[semantics.Event]int {
	out := make(map[semantics.Event]int)
	for _, s := range ts.Segments {
		out[s.Event]++
	}
	return out
}

// TrainingSet assembles the current training set.
func (e *Editor) TrainingSet() TrainingSet {
	cp := make([]LabeledSegment, len(e.segments))
	copy(cp, e.segments)
	return TrainingSet{Segments: cp}
}

// Persistence ---------------------------------------------------------------

type editorJSON struct {
	Patterns []Pattern        `json:"patterns"`
	Segments []LabeledSegment `json:"segments"`
}

// WriteTo serializes the editor state as indented JSON.
func (e *Editor) WriteTo(w io.Writer) (int64, error) {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	state := editorJSON{Segments: e.segments}
	for _, p := range e.Patterns() {
		state.Patterns = append(state.Patterns, p)
	}
	return 0, enc.Encode(state)
}

// Save writes the editor state to a JSON file.
func (e *Editor) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := e.WriteTo(f); err != nil {
		return err
	}
	return f.Close()
}

// Read parses editor state from JSON. Patterns replace the built-ins.
func Read(r io.Reader) (*Editor, error) {
	var state editorJSON
	if err := json.NewDecoder(r).Decode(&state); err != nil {
		return nil, fmt.Errorf("events: decode: %w", err)
	}
	e := &Editor{patterns: make(map[semantics.Event]Pattern)}
	for _, p := range state.Patterns {
		e.patterns[p.Event] = p
	}
	for _, s := range state.Segments {
		if err := e.AddSegment(s); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// Load reads editor state from a JSON file.
func Load(path string) (*Editor, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}
