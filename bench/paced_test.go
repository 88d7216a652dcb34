package main

import (
	"testing"
	"time"

	"trips/internal/position"
)

// fakeClock advances only when slept on, plus a scripted stall per send.
type fakeClock struct {
	now    time.Time
	sleeps []time.Duration
}

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.sleeps = append(c.sleeps, d); c.now = c.now.Add(d) }

func TestPaceKeepsTheScheduleThroughAStall(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := &fakeClock{now: start}
	const tick = 5 * time.Millisecond
	var sent [][2]int
	var startedAt []time.Duration
	late, err := pace(clk, start, 95, 10, tick, func(lo, hi int) error {
		sent = append(sent, [2]int{lo, hi})
		startedAt = append(startedAt, clk.now.Sub(start))
		if lo == 20 { // the system stalls during tick 2 for 3.2 ticks
			clk.now = clk.now.Add(16 * time.Millisecond)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sent) != 10 || sent[9] != [2]int{90, 95} {
		t.Fatalf("sent %v: want 10 ticks, the last one short", sent)
	}
	for k, s := range sent {
		if s[1]-s[0] > 10 {
			t.Errorf("tick %d sent %d items: ticks must never merge into a burst", k, s[1]-s[0])
		}
	}
	// Ticks 0-2 start on time. Tick 2's stall ends at 10+16 = 26 ms, so
	// ticks 3, 4, 5 (due 15, 20, 25) start at once, late by 11, 6, 1 ms;
	// tick 6 (due 30) is back on schedule.
	want := []time.Duration{0, 0, 0, 11, 6, 1, 0, 0, 0, 0}
	for k := range want {
		if late[k] != want[k]*time.Millisecond {
			t.Errorf("tick %d late by %v, want %v ms", k, late[k], want[k])
		}
	}
	if startedAt[6] != 30*time.Millisecond {
		t.Errorf("tick 6 started at %v, want its due time 30ms", startedAt[6])
	}
	for _, d := range clk.sleeps {
		if d <= 0 || d > tick {
			t.Errorf("slept %v: a sleep is at most one tick and never negative", d)
		}
	}
}

func TestSealerFindsTheRecordThatMakesATripSealable(t *testing.T) {
	at := func(s int) time.Time { return time.Unix(int64(s), 0) }
	recs := []position.Record{
		{Device: "a", At: at(0)},  // 0
		{Device: "b", At: at(1)},  // 1
		{Device: "a", At: at(10)}, // 2
		{Device: "a", At: at(20)}, // 3
		{Device: "b", At: at(25)}, // 4
		{Device: "a", At: at(30)}, // 5
	}
	sch := newSchedule(recs)
	for _, c := range []struct {
		dev   position.DeviceID
		after int
		want  int
	}{
		{"a", 5, 2},   // first record of a strictly later than t=5
		{"a", 10, 3},  // strictly later: the record at t=10 itself does not count
		{"a", 29, 5},  //
		{"a", 30, -1}, // the stream ends first: only Close seals it
		{"b", 0, 1},   // other devices' records are skipped
		{"b", 1, 4},   //
		{"c", 0, -1},  // unknown device
	} {
		if got := sch.sealer(c.dev, at(c.after)); got != c.want {
			t.Errorf("sealer(%s, %d) = %d, want %d", c.dev, c.after, got, c.want)
		}
	}
}
