package events

import (
	"bytes"
	"testing"
	"time"

	"trips/internal/geom"
	"trips/internal/position"
	"trips/internal/semantics"
)

var t0 = time.Date(2017, 1, 2, 10, 0, 0, 0, time.UTC)

func seq(dev string, n int, period time.Duration) *position.Sequence {
	s := position.NewSequence(position.DeviceID(dev))
	for i := 0; i < n; i++ {
		s.Append(position.Record{Device: s.Device, P: geom.Pt(float64(i), 0), Floor: 1,
			At: t0.Add(time.Duration(i) * period)})
	}
	return s
}

func TestBuiltinPatterns(t *testing.T) {
	e := NewEditor()
	if _, ok := e.patterns[semantics.EventStay]; !ok {
		t.Error("stay pattern missing")
	}
	if _, ok := e.patterns[semantics.EventPassBy]; !ok {
		t.Error("pass-by pattern missing")
	}
	ps := e.Patterns()
	if len(ps) != 2 {
		t.Errorf("patterns = %d", len(ps))
	}
	// Sorted by event name: pass-by < stay.
	if ps[0].Event != semantics.EventPassBy {
		t.Errorf("patterns order = %v", ps)
	}
}

func TestDefinePattern(t *testing.T) {
	e := NewEditor()
	e.DefinePattern(Pattern{Event: "queue", Description: "waiting in line"})
	if _, ok := e.patterns["queue"]; !ok {
		t.Fatal("custom pattern not stored")
	}
}

func TestDesignateValidation(t *testing.T) {
	e := NewEditor()
	s := seq("d", 10, time.Minute) // spans 9 minutes

	if err := e.Designate("teleport", s, 0, 5); err == nil {
		t.Error("undefined pattern accepted")
	}
	if err := e.Designate(semantics.EventStay, s, -1, 5); err == nil {
		t.Error("negative from accepted")
	}
	if err := e.Designate(semantics.EventStay, s, 5, 5); err == nil {
		t.Error("empty range accepted")
	}
	if err := e.Designate(semantics.EventStay, s, 0, 99); err == nil {
		t.Error("overlong range accepted")
	}
	// Stay requires ≥ 2 minutes: a 1-minute segment fails.
	if err := e.Designate(semantics.EventStay, s, 0, 2); err == nil {
		t.Error("too-short stay accepted")
	}
	// Pass-by allows ≤ 5 minutes: a 9-minute segment fails.
	if err := e.Designate(semantics.EventPassBy, s, 0, 10); err == nil {
		t.Error("too-long pass-by accepted")
	}
	// Valid designation copies records.
	if err := e.Designate(semantics.EventStay, s, 0, 5); err != nil {
		t.Fatalf("valid stay rejected: %v", err)
	}
	seg := e.segments[0]
	s.Records[0].P = geom.Pt(99, 99)
	if seg.Records[0].P.Eq(geom.Pt(99, 99)) {
		t.Error("segment aliases source sequence")
	}
}

func TestAddSegment(t *testing.T) {
	e := NewEditor()
	err := e.AddSegment(LabeledSegment{Event: semantics.EventStay,
		Device: "d", Records: seq("d", 3, time.Minute).Records})
	if err != nil {
		t.Fatalf("AddSegment: %v", err)
	}
	if err := e.AddSegment(LabeledSegment{Event: "nope", Device: "d",
		Records: seq("d", 3, time.Minute).Records}); err == nil {
		t.Error("unknown event accepted")
	}
	if err := e.AddSegment(LabeledSegment{Event: semantics.EventStay, Device: "d"}); err == nil {
		t.Error("empty segment accepted")
	}
}

func TestTrainingSet(t *testing.T) {
	e := NewEditor()
	s := seq("d", 20, time.Minute)
	mustDesignate(t, e, semantics.EventStay, s, 0, 5)
	mustDesignate(t, e, semantics.EventStay, s, 5, 10)
	mustDesignate(t, e, semantics.EventPassBy, s, 10, 13)

	ts := e.TrainingSet()
	if len(ts.Segments) != 3 {
		t.Fatalf("segments = %d", len(ts.Segments))
	}
	by := ts.ByEvent()
	if len(by[semantics.EventStay]) != 2 || len(by[semantics.EventPassBy]) != 1 {
		t.Errorf("grouping = %v", ts.Counts())
	}
	counts := ts.Counts()
	if counts[semantics.EventStay] != 2 {
		t.Errorf("counts = %v", counts)
	}
	// The training set is a snapshot, not a live view.
	mustDesignate(t, e, semantics.EventPassBy, s, 13, 16)
	if len(ts.Segments) != 3 {
		t.Error("training set mutated after snapshot")
	}
}

func mustDesignate(t *testing.T, e *Editor, ev semantics.Event, s *position.Sequence, from, to int) {
	t.Helper()
	if err := e.Designate(ev, s, from, to); err != nil {
		t.Fatalf("Designate(%s, %d, %d): %v", ev, from, to, err)
	}
}

func TestEditorPersistence(t *testing.T) {
	e := NewEditor()
	e.DefinePattern(Pattern{Event: "queue", Description: "waiting", MinDuration: time.Minute})
	s := seq("d", 20, time.Minute)
	mustDesignate(t, e, semantics.EventStay, s, 0, 5)
	mustDesignate(t, e, "queue", s, 5, 10)

	var buf bytes.Buffer
	if _, err := e.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	e2, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if _, ok := e2.patterns["queue"]; !ok {
		t.Error("custom pattern lost")
	}
	if len(e2.segments) != 2 {
		t.Errorf("segments after reload = %d", len(e2.segments))
	}
	if _, err := Read(bytes.NewBufferString("{oops")); err == nil {
		t.Error("garbage accepted")
	}
}

func TestEditorSaveLoadFile(t *testing.T) {
	e := NewEditor()
	s := seq("d", 20, time.Minute)
	mustDesignate(t, e, semantics.EventStay, s, 0, 5)
	path := t.TempDir() + "/events.json"
	if err := e.Save(path); err != nil {
		t.Fatalf("Save: %v", err)
	}
	e2, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(e2.segments) != 1 {
		t.Errorf("segments = %d", len(e2.segments))
	}
	if _, err := Load(t.TempDir() + "/nope.json"); err == nil {
		t.Error("missing file accepted")
	}
}
