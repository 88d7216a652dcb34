package position

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"trips/internal/dsm"
	"trips/internal/geom"
)

var t0 = time.Date(2017, 1, 2, 10, 0, 0, 0, time.UTC)

func rec(dev string, x, y float64, floor int, offset time.Duration) Record {
	return Record{Device: DeviceID(dev), P: geom.Pt(x, y), Floor: dsm.FloorID(floor), At: t0.Add(offset)}
}

func TestRecordString(t *testing.T) {
	r := Record{Device: "oi", P: geom.Pt(5.1, 12.7), Floor: 3,
		At: time.Date(2017, 1, 2, 13, 2, 5, 0, time.UTC)}
	want := "oi, (5.1, 12.7, 3F), 1:02:05pm"
	if got := r.String(); got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSequenceAppendKeepsOrder(t *testing.T) {
	s := NewSequence("d")
	s.Append(rec("d", 0, 0, 1, 10*time.Second))
	s.Append(rec("d", 1, 0, 1, 30*time.Second))
	s.Append(rec("d", 2, 0, 1, 20*time.Second)) // out of order
	if s.Len() != 3 {
		t.Fatalf("len = %d", s.Len())
	}
	for i := 1; i < s.Len(); i++ {
		if s.Records[i].At.Before(s.Records[i-1].At) {
			t.Fatalf("records out of order at %d", i)
		}
	}
	if s.Records[1].P.X != 2 {
		t.Errorf("inserted record misplaced: %v", s.Records)
	}
}

func TestSequenceStats(t *testing.T) {
	s := NewSequence("d")
	if !s.Start().IsZero() || !s.End().IsZero() || s.Duration() != 0 {
		t.Error("empty sequence stats should be zero")
	}
	s.Append(rec("d", 0, 0, 1, 0))
	s.Append(rec("d", 3, 4, 1, 10*time.Second))
	s.Append(rec("d", 3, 4, 2, 40*time.Second)) // floor change
	if s.Duration() != 40*time.Second {
		t.Errorf("duration = %v", s.Duration())
	}
	if mp := s.MeanPeriod(); mp != 20*time.Second {
		t.Errorf("mean period = %v", mp)
	}
}

func TestSequenceTimeWindow(t *testing.T) {
	s := NewSequence("d")
	for i := 0; i < 10; i++ {
		s.Append(rec("d", float64(i), 0, 1, time.Duration(i)*time.Minute))
	}
	w := s.TimeWindow(t0.Add(2*time.Minute), t0.Add(5*time.Minute))
	if w.Len() != 3 {
		t.Fatalf("window len = %d", w.Len())
	}
	if w.Records[0].P.X != 2 || w.Records[2].P.X != 4 {
		t.Errorf("window contents wrong: %v", w.Records)
	}
}

func TestSequenceCloneIndependent(t *testing.T) {
	s := NewSequence("d")
	s.Append(rec("d", 1, 1, 1, 0))
	c := s.Clone()
	c.Records[0].P = geom.Pt(9, 9)
	if s.Records[0].P.Eq(geom.Pt(9, 9)) {
		t.Error("clone aliases original")
	}
}

func TestDatasetBasics(t *testing.T) {
	ds := NewDataset()
	ds.Add(rec("b", 0, 0, 1, time.Minute))
	ds.Add(rec("a", 1, 1, 1, 0))
	ds.Add(rec("a", 2, 2, 1, 2*time.Minute))
	if ds.NumDevices() != 2 || ds.NumRecords() != 3 {
		t.Fatalf("counts = %d devices, %d records", ds.NumDevices(), ds.NumRecords())
	}
	devs := ds.Devices()
	if len(devs) != 2 || devs[0] != "a" || devs[1] != "b" {
		t.Errorf("devices = %v", devs)
	}
	lo, hi := ds.TimeRange()
	if !lo.Equal(t0) || !hi.Equal(t0.Add(2*time.Minute)) {
		t.Errorf("time range = %v..%v", lo, hi)
	}
	st := ds.Summarize()
	if st.MeanLength != 1.5 {
		t.Errorf("mean length = %v", st.MeanLength)
	}
	if !strings.Contains(st.String(), "2 devices") {
		t.Errorf("stats string = %q", st.String())
	}
	if ds.Sequence("missing") != nil {
		t.Error("missing device should be nil")
	}
}

func TestParseFloor(t *testing.T) {
	cases := []struct {
		in   string
		want dsm.FloorID
		ok   bool
	}{
		{"3F", 3, true}, {"3f", 3, true}, {"B2", -2, true},
		{"7", 7, true}, {"-1", -1, true}, {" 2F ", 2, true},
		{"", 0, false}, {"xF", 0, false}, {"B0", 0, false}, {"Bx", 0, false},
	}
	for _, c := range cases {
		got, err := ParseFloor(c.in)
		if (err == nil) != c.ok || (c.ok && got != c.want) {
			t.Errorf("ParseFloor(%q) = %v,%v want %v,%v", c.in, got, err, c.want, c.ok)
		}
	}
}

func TestParseTime(t *testing.T) {
	if _, err := ParseTime("2017-01-02T10:00:00Z"); err != nil {
		t.Errorf("RFC3339 rejected: %v", err)
	}
	got, err := ParseTime("1483351200000")
	if err != nil || got.Year() != 2017 {
		t.Errorf("unix ms = %v, %v", got, err)
	}
	if _, err := ParseTime("yesterday"); err == nil {
		t.Error("garbage time accepted")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	ds := NewDataset()
	ds.Add(rec("dev-1", 5.125, 12.75, 3, 0))
	ds.Add(rec("dev-1", 6.5, 11.875, 3, 7*time.Second))
	ds.Add(rec("dev-2", 1, 2, -1, time.Second))

	var buf bytes.Buffer
	if err := WriteCSV(&buf, ds); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if got.NumRecords() != 3 || got.NumDevices() != 2 {
		t.Fatalf("round trip counts: %d/%d", got.NumDevices(), got.NumRecords())
	}
	r := got.Sequence("dev-1").Records[0]
	if !almost(r.P.X, 5.125) || r.Floor != 3 || !r.At.Equal(t0) {
		t.Errorf("round trip record = %+v", r)
	}
	b1 := got.Sequence("dev-2").Records[0]
	if b1.Floor != -1 {
		t.Errorf("basement floor = %v", b1.Floor)
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("device,x,y,floor,time\nd,notnum,2,1F,2017-01-02T10:00:00Z\n")); err == nil {
		t.Error("bad x accepted")
	}
	if _, err := ReadCSV(strings.NewReader("d,1,2,1F\n")); err == nil {
		t.Error("short row accepted")
	}
	if _, err := ReadCSV(strings.NewReader("d,1,2,1F,not-a-time\n")); err == nil {
		t.Error("bad time accepted")
	}
	// Header-less numeric data parses fine.
	ds, err := ReadCSV(strings.NewReader("d,1,2,1F,2017-01-02T10:00:00Z\n"))
	if err != nil || ds.NumRecords() != 1 {
		t.Errorf("headerless csv: %v, %d", err, ds.NumRecords())
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	ds := NewDataset()
	ds.Add(rec("j1", 3.5, 4.5, 2, 0))
	ds.Add(rec("j2", 1, 1, 1, time.Minute))
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, ds); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatalf("ReadJSONL: %v", err)
	}
	if got.NumRecords() != 2 {
		t.Fatalf("records = %d", got.NumRecords())
	}
	if _, err := ReadJSONL(strings.NewReader("{bad json\n")); err == nil {
		t.Error("bad jsonl accepted")
	}
	// Blank lines are skipped.
	got, err = ReadJSONL(strings.NewReader("\n\n"))
	if err != nil || got.NumRecords() != 0 {
		t.Errorf("blank jsonl: %v %d", err, got.NumRecords())
	}
}

func TestLoadSaveFile(t *testing.T) {
	dir := t.TempDir()
	ds := NewDataset()
	ds.Add(rec("f1", 1, 2, 1, 0))
	for _, name := range []string{"/a.csv", "/a.jsonl"} {
		path := dir + name
		if err := SaveFile(path, ds); err != nil {
			t.Fatalf("SaveFile(%s): %v", name, err)
		}
		got, err := LoadFile(path)
		if err != nil || got.NumRecords() != 1 {
			t.Fatalf("LoadFile(%s): %v, %d", name, err, got.NumRecords())
		}
	}
	if err := SaveFile(dir+"/a.xml", ds); err == nil {
		t.Error("unknown extension accepted on save")
	}
	if _, err := LoadFile(dir + "/a.xml"); err == nil {
		t.Error("unknown extension accepted on load")
	}
}

func TestSequencePropertyAppendSorted(t *testing.T) {
	// Whatever the insertion order, records end up time-sorted.
	f := func(offsets []int16) bool {
		s := NewSequence("p")
		for i, off := range offsets {
			s.Append(rec("p", float64(i), 0, 1, time.Duration(off)*time.Second))
		}
		for i := 1; i < s.Len(); i++ {
			if s.Records[i].At.Before(s.Records[i-1].At) {
				return false
			}
		}
		return s.Len() == len(offsets)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestColumnsClockSaturates: a run whose window-capped gaps add up past
// 2^63 ns pins the clock at its maximum instead of wrapping negative, and
// the clock never runs backwards, even over records out of time order.
func TestColumnsClockSaturates(t *testing.T) {
	far := time.Date(9999, 12, 31, 0, 0, 0, 0, time.UTC)
	recs := []Record{
		{At: time.Time{}}, {At: far}, {At: far.Add(time.Hour)}, {At: far}, {At: far.Add(2 * time.Hour)},
	}
	var c Columns
	c.Sync(recs, 0, math.MaxInt64)
	want := []int64{0, math.MaxInt64, math.MaxInt64, math.MaxInt64, math.MaxInt64}
	for i, at := range c.At {
		if at != want[i] {
			t.Fatalf("clock = %v, want %v", c.At, want)
		}
	}
	c.Sync(recs, 0, time.Minute)
	want = []int64{0, int64(time.Minute + 1), int64(2*time.Minute + 2), int64(2*time.Minute + 2), int64(3*time.Minute + 3)}
	for i, at := range c.At {
		if at != want[i] {
			t.Fatalf("clock = %v, want %v", c.At, want)
		}
	}
}
