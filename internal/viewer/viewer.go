// Package viewer implements the Viewer backend of TRIPS: the Indoor Map
// Visualizer and the Mobility Data Visualizer (paper Sec. 2 and "Visual-
// ization of Mobility Data Sequences" in Sec. 3).
//
// The key idea is the abstraction of different mobility data: "we abstract
// each data sequence as a timeline of entries, each consists of a display
// point and a time range" — positioning records map to (location, instant),
// mobility semantics map to (selected source location, temporal annotation).
// One rendering path then draws raw, cleaned, ground-truth and semantics
// sequences uniformly, with a legend panel toggling source visibility, a
// floor switch, and a timeline whose primary navigator is the semantics
// sequence.
package viewer

import (
	"fmt"
	"sort"
	"time"

	"trips/internal/dsm"
	"trips/internal/geom"
	"trips/internal/position"
	"trips/internal/semantics"
)

// SourceKind identifies one of the mobility data sequences involved in the
// translation.
type SourceKind string

// The four sources the paper's Viewer renders.
const (
	SourceRaw       SourceKind = "raw"
	SourceCleaned   SourceKind = "cleaned"
	SourceTruth     SourceKind = "truth"
	SourceSemantics SourceKind = "semantics"
)

// Entry is the unified timeline element: a display point on a floor plus a
// time range. Records use their instant for both ends; semantics use their
// temporal annotation.
type Entry struct {
	Source   SourceKind      `json:"source"`
	Label    string          `json:"label,omitempty"`
	P        geom.Point      `json:"p"`
	Floor    dsm.FloorID     `json:"floor"`
	From     time.Time       `json:"from"`
	To       time.Time       `json:"to"`
	Event    semantics.Event `json:"event,omitempty"`
	Inferred bool            `json:"inferred,omitempty"`
}

// Covers reports whether the entry's range intersects [from, to).
func (e Entry) Covers(from, to time.Time) bool {
	return e.From.Before(to) && !e.To.Before(from)
}

// FromPositioning abstracts a positioning sequence into entries.
func FromPositioning(kind SourceKind, s *position.Sequence) []Entry {
	out := make([]Entry, 0, s.Len())
	for _, r := range s.Records {
		out = append(out, Entry{
			Source: kind, P: r.P, Floor: r.Floor, From: r.At, To: r.At,
		})
	}
	return out
}

// FromSemantics abstracts a mobility semantics sequence into entries. The
// display point policy was already applied by the Annotator; the entry
// reuses the triplet's display point.
func FromSemantics(s *semantics.Sequence) []Entry {
	out := make([]Entry, 0, s.Len())
	for _, t := range s.Triplets {
		out = append(out, Entry{
			Source: SourceSemantics,
			Label:  fmt.Sprintf("%s @ %s", t.Event, t.Region),
			P:      t.Display, Floor: t.Floor,
			From: t.From, To: t.To,
			Event: t.Event, Inferred: t.Inferred,
		})
	}
	return out
}

// View is the interactive state of the Viewer for one device: the venue
// map, the four data sources, per-source visibility, and the current floor.
type View struct {
	Model   *dsm.Model
	sources map[SourceKind][]Entry
	visible map[SourceKind]bool
	floor   dsm.FloorID
}

// NewView creates a view on the venue showing its lowest floor with every
// source visible.
func NewView(m *dsm.Model) *View {
	v := &View{
		Model:   m,
		sources: make(map[SourceKind][]Entry),
		visible: make(map[SourceKind]bool),
	}
	if fl := m.Floors(); len(fl) > 0 {
		v.floor = fl[0]
	}
	return v
}

// SetSource installs (or replaces) the entries of a source and makes it
// visible.
func (v *View) SetSource(kind SourceKind, entries []Entry) {
	v.sources[kind] = entries
	v.visible[kind] = true
}

// Toggle flips a source's visibility (the legend panel checkboxes) and
// returns the new state.
func (v *View) Toggle(kind SourceKind) bool {
	v.visible[kind] = !v.visible[kind]
	return v.visible[kind]
}

// Visible reports a source's visibility.
func (v *View) Visible(kind SourceKind) bool { return v.visible[kind] }

// Sources lists the installed sources in deterministic order.
func (v *View) Sources() []SourceKind {
	out := make([]SourceKind, 0, len(v.sources))
	for k := range v.sources {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SwitchFloor changes the displayed floor ("allows a switch between
// different floors"); unknown floors are rejected.
func (v *View) SwitchFloor(f dsm.FloorID) error {
	if !v.Model.HasFloor(f) {
		return fmt.Errorf("viewer: no floor %v", f)
	}
	v.floor = f
	return nil
}

// Floor returns the displayed floor.
func (v *View) Floor() dsm.FloorID { return v.floor }
