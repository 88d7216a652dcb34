// Package semantics models the output side of TRIPS: mobility semantics.
//
// A mobility semantics is a triplet of an event annotation (a mobility event
// such as stay or pass-by), a spatial annotation (a semantic region), and a
// temporal annotation (a time period) — the right-hand side of the paper's
// Table 1. The package also provides sequence containers, serialization,
// the conciseness metric the paper motivates ("very concise to process as
// they use a more condensed form"), and the assessment tooling (alignment
// against a ground-truth semantics sequence) that the demo performs
// visually.
package semantics

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"trips/internal/dsm"
	"trips/internal/geom"
)

// Event names a mobility event pattern: "a generic movement pattern of some
// particular interest". Stay and PassBy ship with the system (the paper's
// running examples); analysts define more through the Event Editor.
type Event string

// Built-in events.
const (
	// EventStay: the object remains within one region for a period.
	EventStay Event = "stay"
	// EventPassBy: the object crosses a region without dwelling.
	EventPassBy Event = "pass-by"
	// EventUnknown marks snippets the identifier could not classify.
	EventUnknown Event = "unknown"
)

// Triplet is one mobility semantics: (event, region, period). Origin
// indexes, when present, tie the triplet back to the positioning records it
// was derived from so the Viewer can map semantics entries to raw entries.
type Triplet struct {
	Event    Event        `json:"event"`
	Region   string       `json:"region"` // semantic tag, e.g. "Nike"
	RegionID dsm.RegionID `json:"regionId,omitempty"`
	From     time.Time    `json:"from"`
	To       time.Time    `json:"to"`

	// Inferred marks triplets produced by the Complementor rather than
	// observed in the data.
	Inferred bool `json:"inferred,omitempty"`

	// FirstIdx and LastIdx are the indexes of the first and last cleaned
	// positioning records this triplet covers; -1 when inferred.
	FirstIdx int `json:"firstIdx"`
	LastIdx  int `json:"lastIdx"`

	// Display is the representative point the Viewer renders (temporally
	// middle or spatially central source location, per user configuration).
	Display geom.Point  `json:"display"`
	Floor   dsm.FloorID `json:"floor"`

	// Confidence in [0,1] from the event identification model, or the MAP
	// posterior for inferred triplets.
	Confidence float64 `json:"confidence,omitempty"`
}

// Duration returns the length of the temporal annotation.
func (t Triplet) Duration() time.Duration { return t.To.Sub(t.From) }

// Overlaps reports whether the triplet's period intersects [from, to).
func (t Triplet) Overlaps(from, to time.Time) bool {
	return t.From.Before(to) && from.Before(t.To)
}

// String formats the triplet the way the paper prints it:
// "(stay, Adidas, 1:02:05-1:18:15pm)".
func (t Triplet) String() string {
	return fmt.Sprintf("(%s, %s, %s-%s)", t.Event, t.Region,
		t.From.Format("3:04:05"), t.To.Format("3:04:05pm"))
}

// Sequence is the mobility semantics of one device, time-ordered.
type Sequence struct {
	Device   string    `json:"device"`
	Triplets []Triplet `json:"triplets"`
}

// NewSequence returns an empty semantics sequence for a device.
func NewSequence(device string) *Sequence { return &Sequence{Device: device} }

// Append adds a triplet keeping the sequence ordered by From time.
func (s *Sequence) Append(t Triplet) {
	n := len(s.Triplets)
	if n == 0 || !t.From.Before(s.Triplets[n-1].From) {
		s.Triplets = append(s.Triplets, t)
		return
	}
	i := sort.Search(n, func(i int) bool { return s.Triplets[i].From.After(t.From) })
	s.Triplets = append(s.Triplets, Triplet{})
	copy(s.Triplets[i+1:], s.Triplets[i:])
	s.Triplets[i] = t
}

// Len returns the number of triplets.
func (s *Sequence) Len() int { return len(s.Triplets) }

// Start returns the earliest From; zero when empty.
func (s *Sequence) Start() time.Time {
	if s.Len() == 0 {
		return time.Time{}
	}
	return s.Triplets[0].From
}

// End returns the latest To; zero when empty.
func (s *Sequence) End() time.Time {
	var end time.Time
	for _, t := range s.Triplets {
		if t.To.After(end) {
			end = t.To
		}
	}
	return end
}

// At returns the triplet covering the instant, or nil. Ties resolve to the
// earliest triplet.
func (s *Sequence) At(when time.Time) *Triplet {
	for i := range s.Triplets {
		t := &s.Triplets[i]
		if !when.Before(t.From) && when.Before(t.To) {
			return t
		}
	}
	return nil
}

// String renders the sequence the way Table 1 does, one triplet per line
// under the device header.
func (s *Sequence) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s:\n", s.Device)
	for _, t := range s.Triplets {
		fmt.Fprintf(&b, "  %s\n", t)
	}
	return b.String()
}

// Conciseness metrics ------------------------------------------------------

// Conciseness quantifies the compression the translation achieves: the
// number of raw records represented per semantics triplet, and the byte
// ratio of the two representations.
type Conciseness struct {
	RawRecords        int     `json:"rawRecords"`
	Triplets          int     `json:"triplets"`
	RecordsPerTriplet float64 `json:"recordsPerTriplet"`
	RawBytes          int     `json:"rawBytes"`
	SemBytes          int     `json:"semBytes"`
	ByteRatio         float64 `json:"byteRatio"` // rawBytes / semBytes
}

// MeasureConciseness computes the metric for a translation of rawCount
// records into the sequence. Byte sizes use the JSON wire encodings.
func MeasureConciseness(rawCount int, rawBytes int, s *Sequence) Conciseness {
	c := Conciseness{RawRecords: rawCount, Triplets: s.Len(), RawBytes: rawBytes}
	if b, err := json.Marshal(s); err == nil {
		c.SemBytes = len(b)
	}
	if c.Triplets > 0 {
		c.RecordsPerTriplet = float64(c.RawRecords) / float64(c.Triplets)
	}
	if c.SemBytes > 0 {
		c.ByteRatio = float64(c.RawBytes) / float64(c.SemBytes)
	}
	return c
}

// Serialization -------------------------------------------------------------

// WriteTo encodes the sequence as indented JSON.
func (s *Sequence) WriteTo(w io.Writer) (int64, error) {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return 0, enc.Encode(s)
}

// Save writes the sequence to a JSON file — the "translation result file"
// the analyst exports in the demo walk-through.
func (s *Sequence) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := s.WriteTo(f); err != nil {
		return err
	}
	return f.Close()
}
