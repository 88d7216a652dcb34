package online

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"trips/internal/obs/trace"
)

// TestTryIngestBacklogPressure pins the bounded-admission contract: with a
// stalled shard worker (the emitter blocks mid-seal) and a full inbox,
// TryIngest returns ErrBacklogged instead of blocking — the signal the
// server's ingest endpoint turns into 429 + Retry-After. Ingest, by
// contrast, would park the caller on the channel; unbounded queueing is
// exactly what the load harness exists to forbid.
func TestTryIngestBacklogPressure(t *testing.T) {
	pl := testPipeline(t)
	release := make(chan struct{})
	emitting := make(chan struct{})
	var once sync.Once
	em := EmitterFunc(func(Emission) {
		once.Do(func() { close(emitting) })
		<-release // stall the shard worker inside the seal
	})
	eng, err := NewEngine(pl, Config{
		Shards: 1, QueueLen: 1, FlushEvery: 4,
		FlushInterval: -1, IdleTimeout: -1, Emitter: em,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { close(release); eng.Close() }()

	// Feed the journey until the first seal stalls the worker. TryIngest is
	// used for the feed too: a blocking Ingest could park this goroutine on
	// the 1-slot inbox at the very moment the worker stops draining it.
	g := lcg(7)
	recs := journey(&g, "bp", t0)
	i, stalled := 0, false
feed:
	for ; i < len(recs) && !stalled; i++ {
		for {
			select {
			case <-emitting:
				stalled = true
				break feed
			default:
			}
			err := eng.TryIngest(recs[i], trace.Ctx{})
			if err == nil {
				break
			}
			if !errors.Is(err, ErrBacklogged) {
				t.Fatal(err)
			}
			runtime.Gosched() // transient backlog: the worker is mid-flush
		}
	}
	select {
	case <-emitting:
	case <-time.After(30 * time.Second):
		t.Fatal("journey never sealed a triplet; the workload must cross the horizon")
	}
	if i >= len(recs)-2 {
		t.Fatalf("seal happened only at record %d of %d; no records left to overflow with", i, len(recs))
	}

	// Worker blocked, inbox capacity 1: at most one more record is
	// admitted, then the engine must refuse rather than queue.
	var rejected bool
	for attempt := 0; attempt < 2; attempt++ {
		err := eng.TryIngest(recs[i], trace.Ctx{})
		i++
		if errors.Is(err, ErrBacklogged) {
			rejected = true
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !rejected {
		t.Fatal("full shard inbox with a stalled worker did not return ErrBacklogged")
	}
	if got := eng.Stats().Backlogged; got < 1 {
		t.Errorf("Stats().Backlogged = %d, want >= 1", got)
	}
}

// TestTryIngestClosed: TryIngest mirrors Ingest's closed-engine contract.
func TestTryIngestClosed(t *testing.T) {
	pl := testPipeline(t)
	eng, err := NewEngine(pl, manualConfig(newCollect(), 1))
	if err != nil {
		t.Fatal(err)
	}
	eng.Close()
	g := lcg(3)
	if err := eng.TryIngest(journey(&g, "c", t0)[0], trace.Ctx{}); !errors.Is(err, ErrClosed) {
		t.Errorf("TryIngest after Close = %v, want ErrClosed", err)
	}
}

// TestDuplicateRecordsCollapse pins at-least-once → exactly-once: a feed
// whose records are partially redelivered (same device, same instant, a few
// positions later — the reconnect-storm shape) must translate identically
// to the clean feed, with every redelivery counted in Stats().Duplicates.
func TestDuplicateRecordsCollapse(t *testing.T) {
	pl := testPipeline(t)
	g := lcg(11)
	recs := journey(&g, "dup", t0)
	want := batchTranslate(pl, recs)

	// Redeliver every 7th record 3 positions later (well inside the seal
	// horizon, so none of the duplicates can be dropped as late instead).
	type delivery struct {
		idx int
		dup bool
	}
	var schedule []delivery
	for i := range recs {
		schedule = append(schedule, delivery{idx: i})
		if i%7 == 0 && i+3 < len(recs) {
			schedule = append(schedule, delivery{idx: i, dup: true})
		}
	}
	// Move each duplicate 3 slots later.
	for s := len(schedule) - 1; s >= 3; s-- {
		if schedule[s-3].dup {
			schedule[s-3], schedule[s] = schedule[s], schedule[s-3]
		}
	}

	sink := newCollect()
	eng, err := NewEngine(pl, manualConfig(sink, 1))
	if err != nil {
		t.Fatal(err)
	}
	dups := 0
	for _, d := range schedule {
		if d.dup {
			dups++
		}
		if err := eng.Ingest(recs[d.idx]); err != nil {
			t.Fatal(err)
		}
	}
	eng.Close()

	st := eng.Stats()
	if st.Duplicates != int64(dups) {
		t.Errorf("Stats().Duplicates = %d, want %d", st.Duplicates, dups)
	}
	if st.Late != 0 {
		t.Errorf("Stats().Late = %d; the duplicate schedule was meant to stay within the horizon", st.Late)
	}
	got := sink.byDev["dup"]
	if len(got) != len(want) {
		t.Fatalf("duplicated feed emitted %d triplets, clean feed %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("triplet %d:\n  got  %+v\n  want %+v", i, got[i], want[i])
		}
	}
}
