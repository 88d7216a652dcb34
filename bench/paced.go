package main

import (
	"sort"
	"time"

	"trips/internal/position"
)

// The open-loop schedule of fleet-paced. The rate is a constant of the
// workload, about a quarter of what two shards sustain on the reference
// box, and is never derived at run time: a faster or slower system must see
// the same offered load.
const (
	pacedRate    = 50_000               // records per second
	pacedTick    = 5 * time.Millisecond // send granularity
	pacedPerTick = pacedRate * int(pacedTick/time.Millisecond) / 1000
)

// clock is the time source of the scheduler, so a test can drive it.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// pace sends n items open loop: tick k (perTick items) is due at
// start + k·tick whatever happened to the ticks before it. send gets the
// half-open item range of one tick, never more, so a generator that fell
// behind catches up tick by tick without sleeping but does not merge ticks
// into a burst. It returns how late each tick started.
func pace(clk clock, start time.Time, n, perTick int, tick time.Duration, send func(lo, hi int) error) ([]time.Duration, error) {
	late := make([]time.Duration, 0, n/perTick+1)
	for k, lo := 0, 0; lo < n; k, lo = k+1, lo+perTick {
		due := start.Add(time.Duration(k) * tick)
		now := clk.Now()
		if now.Before(due) {
			clk.Sleep(due.Sub(now))
			now = clk.Now()
		}
		late = append(late, now.Sub(due))
		if err := send(lo, min(lo+perTick, n)); err != nil {
			return late, err
		}
	}
	return late, nil
}

// schedule indexes a record stream per device, for finding the record that
// made a trip sealable.
type schedule struct {
	at  map[position.DeviceID][]time.Time
	pos map[position.DeviceID][]int32 // index of each record in the stream
}

func newSchedule(recs []position.Record) *schedule {
	s := &schedule{
		at:  make(map[position.DeviceID][]time.Time),
		pos: make(map[position.DeviceID][]int32),
	}
	for i, r := range recs {
		s.at[r.Device] = append(s.at[r.Device], r.At)
		s.pos[r.Device] = append(s.pos[r.Device], int32(i))
	}
	return s
}

// sealer returns the stream index of the first record of dev later than
// after, the record whose arrival moves the device's watermark past a
// trip's seal horizon; -1 when the stream ends first, that is when only
// Close seals the trip.
func (s *schedule) sealer(dev position.DeviceID, after time.Time) int {
	at := s.at[dev]
	i := sort.Search(len(at), func(i int) bool { return at[i].After(after) })
	if i == len(at) {
		return -1
	}
	return int(s.pos[dev][i])
}

// stampEvery is how many records of a closed-loop feed share one clock
// read: the hand-over time of a record is its block's stamp.
const stampEvery = 256

// freshness returns, in milliseconds, how long after the hand-over of its
// sealing record each observed, streamed trip reached the end of the tee
// chain. due
// maps a stream index to that hand-over time: the scheduled instant in the
// open loop, the block stamp in a closed loop.
func freshness(col *collector, sch *schedule, horizon time.Duration, due func(i int) time.Time) []float64 {
	out := make([]float64, 0, col.streamed)
	for j := 0; j < col.streamed; j++ {
		t := &col.trips[j]
		if t.Triplet.Inferred {
			continue // visible when its successor seals, not on a record of its own
		}
		i := sch.sealer(t.Device, t.Triplet.To.Add(horizon))
		if i < 0 {
			continue
		}
		out = append(out, float64(col.at[j].Sub(due(i)).Nanoseconds())/1e6)
	}
	return out
}
