package semantics

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

var t0 = time.Date(2017, 1, 2, 13, 2, 5, 0, time.UTC)

func trip(ev Event, region string, fromOff, toOff time.Duration) Triplet {
	return Triplet{Event: ev, Region: region, From: t0.Add(fromOff), To: t0.Add(toOff)}
}

func TestTripletString(t *testing.T) {
	tr := trip(EventStay, "Adidas", 0, 16*time.Minute+10*time.Second)
	got := tr.String()
	if !strings.Contains(got, "stay") || !strings.Contains(got, "Adidas") {
		t.Errorf("String = %q", got)
	}
	if !strings.Contains(got, "1:02:05") {
		t.Errorf("String should carry the start time: %q", got)
	}
}

func TestTripletOverlaps(t *testing.T) {
	tr := trip(EventStay, "A", 0, 10*time.Minute)
	if !tr.Overlaps(t0.Add(5*time.Minute), t0.Add(15*time.Minute)) {
		t.Error("overlap missed")
	}
	if tr.Overlaps(t0.Add(10*time.Minute), t0.Add(20*time.Minute)) {
		t.Error("touching intervals should not overlap (half-open)")
	}
	if tr.Overlaps(t0.Add(-5*time.Minute), t0) {
		t.Error("preceding interval should not overlap")
	}
}

func TestSequenceAppendOrdered(t *testing.T) {
	s := NewSequence("oi")
	s.Append(trip(EventStay, "B", 10*time.Minute, 20*time.Minute))
	s.Append(trip(EventStay, "A", 0, 10*time.Minute))
	s.Append(trip(EventPassBy, "C", 25*time.Minute, 26*time.Minute))
	if s.Len() != 3 {
		t.Fatalf("len = %d", s.Len())
	}
	if s.Triplets[0].Region != "A" || s.Triplets[2].Region != "C" {
		t.Errorf("order wrong: %v", s.Triplets)
	}
	if !s.Start().Equal(t0) {
		t.Errorf("start = %v", s.Start())
	}
	if !s.End().Equal(t0.Add(26 * time.Minute)) {
		t.Errorf("end = %v", s.End())
	}
}

func TestSequenceAt(t *testing.T) {
	s := NewSequence("oi")
	s.Append(trip(EventStay, "A", 0, 10*time.Minute))
	s.Append(trip(EventPassBy, "B", 12*time.Minute, 13*time.Minute))
	if got := s.At(t0.Add(5 * time.Minute)); got == nil || got.Region != "A" {
		t.Errorf("At(5m) = %v", got)
	}
	if got := s.At(t0.Add(11 * time.Minute)); got != nil {
		t.Errorf("At(gap) = %v", got)
	}
	if got := s.At(t0.Add(10 * time.Minute)); got != nil {
		t.Error("To is exclusive")
	}
}

func TestSequenceString(t *testing.T) {
	s := NewSequence("oi")
	s.Append(trip(EventStay, "Adidas", 0, 16*time.Minute))
	got := s.String()
	if !strings.HasPrefix(got, "oi:\n") || !strings.Contains(got, "Adidas") {
		t.Errorf("String = %q", got)
	}
}

func TestMeasureConciseness(t *testing.T) {
	s := NewSequence("oi")
	s.Append(trip(EventStay, "A", 0, 10*time.Minute))
	s.Append(trip(EventPassBy, "B", 10*time.Minute, 11*time.Minute))
	c := MeasureConciseness(200, 20000, s)
	if c.RecordsPerTriplet != 100 {
		t.Errorf("records per triplet = %v", c.RecordsPerTriplet)
	}
	if c.SemBytes <= 0 || c.ByteRatio <= 0 {
		t.Errorf("byte metrics = %+v", c)
	}
	// Empty sequence does not divide by zero.
	c = MeasureConciseness(0, 0, NewSequence("x"))
	if c.RecordsPerTriplet != 0 || c.ByteRatio != 0 {
		t.Errorf("empty conciseness = %+v", c)
	}
}

func TestSequenceSave(t *testing.T) {
	s := NewSequence("oi")
	s.Append(trip(EventStay, "A", 0, 10*time.Minute))
	path := t.TempDir() + "/sem.json"
	if err := s.Save(path); err != nil {
		t.Fatalf("Save: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got Sequence
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Device != "oi" || got.Len() != 1 || got.Triplets[0].Region != "A" {
		t.Errorf("saved = %+v", got)
	}
}

func TestSequenceJSONShape(t *testing.T) {
	s := NewSequence("oi")
	s.Append(trip(EventStay, "A", 0, time.Minute))
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var m map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatalf("output not JSON: %v", err)
	}
	if m["device"] != "oi" {
		t.Errorf("device field = %v", m["device"])
	}
}

func TestCompareExactMatch(t *testing.T) {
	truth := NewSequence("oi")
	truth.Append(trip(EventStay, "A", 0, 10*time.Minute))
	truth.Append(trip(EventPassBy, "B", 10*time.Minute, 12*time.Minute))

	rep := Compare(truth, truth, time.Second)
	if rep.TimeAgreement < 0.999 || rep.EventAgreement < 0.999 {
		t.Errorf("self agreement = %+v", rep)
	}
	if rep.F1 != 1 || rep.Matched != 2 {
		t.Errorf("self F1 = %+v", rep)
	}
}

func TestCompareMismatches(t *testing.T) {
	truth := NewSequence("oi")
	truth.Append(trip(EventStay, "A", 0, 10*time.Minute))
	truth.Append(trip(EventStay, "B", 10*time.Minute, 20*time.Minute))

	// Got the first region right but the second wrong.
	got := NewSequence("oi")
	got.Append(trip(EventStay, "A", 0, 10*time.Minute))
	got.Append(trip(EventStay, "C", 10*time.Minute, 20*time.Minute))

	rep := Compare(got, truth, time.Second)
	if rep.TimeAgreement < 0.45 || rep.TimeAgreement > 0.55 {
		t.Errorf("time agreement = %v, want ≈0.5", rep.TimeAgreement)
	}
	if rep.Matched != 1 || rep.Precision != 0.5 || rep.Recall != 0.5 {
		t.Errorf("triplet scores = %+v", rep)
	}

	// Same region, wrong event: counts for region agreement only.
	got2 := NewSequence("oi")
	got2.Append(trip(EventPassBy, "A", 0, 10*time.Minute))
	got2.Append(trip(EventStay, "B", 10*time.Minute, 20*time.Minute))
	rep2 := Compare(got2, truth, time.Second)
	if rep2.TimeAgreement < 0.99 {
		t.Errorf("region agreement = %v", rep2.TimeAgreement)
	}
	if rep2.EventAgreement < 0.45 || rep2.EventAgreement > 0.55 {
		t.Errorf("event agreement = %v", rep2.EventAgreement)
	}
}

func TestCompareEmpty(t *testing.T) {
	rep := Compare(NewSequence("a"), NewSequence("b"), time.Second)
	if rep.F1 != 0 || rep.TimeAgreement != 0 {
		t.Errorf("empty compare = %+v", rep)
	}
}

func TestCompareOverlapRule(t *testing.T) {
	truth := NewSequence("oi")
	truth.Append(trip(EventStay, "A", 0, 10*time.Minute))
	// Shifted by 4 minutes: overlap 6 of 10 minutes ≥ half — matches.
	got := NewSequence("oi")
	got.Append(trip(EventStay, "A", 4*time.Minute, 14*time.Minute))
	if rep := Compare(got, truth, time.Second); rep.Matched != 1 {
		t.Errorf("60%% overlap should match: %+v", rep)
	}
	// Shifted by 8 minutes: overlap 2 of 10 < half — no match.
	got2 := NewSequence("oi")
	got2.Append(trip(EventStay, "A", 8*time.Minute, 18*time.Minute))
	if rep := Compare(got2, truth, time.Second); rep.Matched != 0 {
		t.Errorf("20%% overlap should not match: %+v", rep)
	}
}
