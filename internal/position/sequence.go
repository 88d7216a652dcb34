package position

import (
	"sort"
	"time"
)

// Sequence is the time-ordered positioning records of one device. The zero
// value is an empty sequence ready for Append.
type Sequence struct {
	Device  DeviceID `json:"device"`
	Records []Record `json:"records"`
}

// NewSequence returns an empty sequence for the device.
func NewSequence(dev DeviceID) *Sequence { return &Sequence{Device: dev} }

// Append adds a record, keeping the sequence sorted by time. Appending in
// time order is O(1); out-of-order records trigger a binary-search insert.
func (s *Sequence) Append(r Record) {
	r.Device = s.Device
	n := len(s.Records)
	if n == 0 || !r.At.Before(s.Records[n-1].At) {
		s.Records = append(s.Records, r)
		return
	}
	i := sort.Search(n, func(i int) bool { return s.Records[i].At.After(r.At) })
	s.Records = append(s.Records, Record{})
	copy(s.Records[i+1:], s.Records[i:])
	s.Records[i] = r
}

// Len returns the number of records.
func (s *Sequence) Len() int { return len(s.Records) }

// Empty reports whether the sequence has no records.
func (s *Sequence) Empty() bool { return len(s.Records) == 0 }

// Start returns the first timestamp; the zero time when empty.
func (s *Sequence) Start() time.Time {
	if s.Empty() {
		return time.Time{}
	}
	return s.Records[0].At
}

// End returns the last timestamp; the zero time when empty.
func (s *Sequence) End() time.Time {
	if s.Empty() {
		return time.Time{}
	}
	return s.Records[len(s.Records)-1].At
}

// Duration returns End minus Start.
func (s *Sequence) Duration() time.Duration { return s.End().Sub(s.Start()) }

// MeanPeriod returns the average sampling period, or zero for fewer than two
// records. The Data Selector's frequency rule uses it.
func (s *Sequence) MeanPeriod() time.Duration {
	if len(s.Records) < 2 {
		return 0
	}
	return s.Duration() / time.Duration(len(s.Records)-1)
}

// Slice returns a shallow sub-sequence covering records [i, j).
func (s *Sequence) Slice(i, j int) *Sequence {
	return &Sequence{Device: s.Device, Records: s.Records[i:j]}
}

// TimeWindow returns the records with At in [from, to) as a new sequence
// sharing the underlying array.
func (s *Sequence) TimeWindow(from, to time.Time) *Sequence {
	lo := sort.Search(len(s.Records), func(i int) bool { return !s.Records[i].At.Before(from) })
	hi := sort.Search(len(s.Records), func(i int) bool { return !s.Records[i].At.Before(to) })
	return s.Slice(lo, hi)
}

// Clone returns a deep copy of the sequence.
func (s *Sequence) Clone() *Sequence {
	cp := &Sequence{Device: s.Device, Records: make([]Record, len(s.Records))}
	copy(cp.Records, s.Records)
	return cp
}
