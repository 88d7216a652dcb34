package online

import (
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"trips/internal/obs"
	"trips/internal/obs/trace"
	"trips/internal/position"
)

// evidenceFleet is eight devices, each on two journeys split by a
// 30-minute dropout (a hard break: trim, fresh tail epoch, gap
// inference), interleaved in global time order as a venue feed delivers.
func evidenceFleet() (map[position.DeviceID][]position.Record, []position.Record) {
	g := lcg(29)
	perDev := make(map[position.DeviceID][]position.Record)
	var all []position.Record
	for i, dev := range []position.DeviceID{"a", "b", "c", "d", "e", "f", "g", "h"} {
		first := journey(&g, dev, t0.Add(time.Duration(i)*97*time.Second))
		second := journey(&g, dev, first[len(first)-1].At.Add(30*time.Minute))
		rs := append(first, second...)
		perDev[dev] = rs
		all = append(all, rs...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].At.Before(all[j].At) })
	return perDev, all
}

// emittedAt is where each emission left the engine: the feed position of
// the record whose ingest released it, len(feed) for Close.
type emittedAt struct {
	mu  sync.Mutex
	cur int
	at  map[position.DeviceID][]int
	out map[position.DeviceID][]Emission
}

func (e *emittedAt) Emit(em Emission) {
	e.mu.Lock()
	e.at[em.Device] = append(e.at[em.Device], e.cur)
	e.out[em.Device] = append(e.out[em.Device], em)
	e.mu.Unlock()
}

func (e *emittedAt) set(i int) {
	e.mu.Lock()
	e.cur = i
	e.mu.Unlock()
}

// feedBarriered ingests the feed one record at a time; the Snapshot after
// each record returns only once the shard has applied it and run any
// flush it triggered, so every emission is stamped with its record.
func feedBarriered(t *testing.T, pl Pipeline, cfg Config, all []position.Record) (*emittedAt, Stats) {
	t.Helper()
	sink := &emittedAt{at: make(map[position.DeviceID][]int), out: make(map[position.DeviceID][]Emission)}
	cfg.Emitter = sink
	eng, err := NewEngine(pl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range all {
		sink.set(i)
		if err := eng.Ingest(r); err != nil {
			t.Fatal(err)
		}
		eng.Snapshot(r.Device)
	}
	sink.set(len(all))
	eng.Close()
	return sink, eng.Stats()
}

// TestSealOnEvidence: with the sweep an hour away and FlushEvery out of
// reach, only the evidence trigger flushes before Close. It must
// reproduce batch output and release each triplet on the same record as a
// reference that flushes after every record (the earliest any schedule
// can seal).
func TestSealOnEvidence(t *testing.T) {
	pl := testPipeline(t)
	// Without a complementor: gap inference reads knowledge the shards
	// share, so it depends on cross-device emission order, which is not
	// what this test pins.
	pl.Complementor = nil
	perDev, all := evidenceFleet()

	ev, evStats := feedBarriered(t, pl, Config{Shards: 2, FlushEvery: 1 << 20, FlushInterval: time.Hour, IdleTimeout: -1}, all)
	ref, refStats := feedBarriered(t, pl, Config{Shards: 2, FlushEvery: 1, FlushInterval: -1, IdleTimeout: -1}, all)

	for dev, recs := range perDev {
		want := batchTranslate(pl, recs)
		for name, s := range map[string]*emittedAt{"evidence": ev, "reference": ref} {
			ems := s.out[dev]
			if len(ems) != len(want) {
				t.Fatalf("%s device %s: %d emissions, want %d", name, dev, len(ems), len(want))
			}
			for i, em := range ems {
				if !reflect.DeepEqual(em.Triplet, want[i]) {
					t.Fatalf("%s device %s triplet %d:\nonline: %v\nbatch:  %v", name, dev, i, em.Triplet, want[i])
				}
			}
		}
	}

	// Share of the reference's pre-Close emissions that the evidence
	// engine released on the same record.
	same, total := 0, 0
	for dev, at := range ref.at {
		for i, idx := range at {
			if idx == len(all) {
				continue
			}
			total++
			if ev.at[dev][i] == idx {
				same++
			}
		}
	}
	if total < 3*len(perDev) {
		t.Fatalf("the reference sealed only %d triplets before Close; the fleet no longer exercises the trigger", total)
	}
	share := float64(same) / float64(total)
	t.Logf("%d/%d triplets released on the reference's record (%.1f%%); %d evidence flushes, %d flushes, %d sealing",
		same, total, 100*share, evStats.EvidenceFlushes, evStats.Flushes, evStats.SealingFlushes)
	if share < 0.99 {
		t.Errorf("only %.1f%% of triplets released on the reference's record, want >= 99%%", 100*share)
	}
	if evStats.Trims == 0 {
		t.Error("no trim: the fleet no longer exercises the epoch-change seal point")
	}
	// Every flush before Close was the trigger's; Close flushes each of
	// the eight sessions once more.
	if evStats.EvidenceFlushes == 0 || evStats.Flushes > evStats.EvidenceFlushes+int64(len(perDev)) {
		t.Errorf("EvidenceFlushes = %d of %d flushes, want all but the %d Close flushes",
			evStats.EvidenceFlushes, evStats.Flushes, len(perDev))
	}
	if evStats.SealingFlushes == 0 || evStats.SealingFlushes > evStats.Flushes {
		t.Errorf("SealingFlushes = %d of %d flushes", evStats.SealingFlushes, evStats.Flushes)
	}
	if refStats.EvidenceFlushes != 0 {
		t.Errorf("manual reference counted %d evidence flushes", refStats.EvidenceFlushes)
	}
}

// TestManualModeKeepsFlushSchedule: FlushInterval < 0 turns the evidence
// trigger off with the sweep, so a manual engine flushes exactly where
// FlushEvery, Flush and Close say — the schedule closed-loop benchmarks
// and the seal-free adversarial feeds depend on.
func TestManualModeKeepsFlushSchedule(t *testing.T) {
	pl := testPipeline(t)
	_, all := evidenceFleet()
	eng, err := NewEngine(pl, manualConfig(newCollect(), 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range all {
		if err := eng.Ingest(r); err != nil {
			t.Fatal(err)
		}
	}
	eng.Flush()
	eng.Close()
	st := eng.Stats()
	if st.EvidenceFlushes != 0 {
		t.Errorf("manual engine counted %d evidence flushes", st.EvidenceFlushes)
	}
	// The count-only schedule this feed has always run: one flush per 16
	// records of a device, one per session holding a remainder at Flush,
	// one per non-empty tail at Close.
	const want = 264
	if st.Flushes != want {
		t.Errorf("manual engine ran %d flushes, want %d", st.Flushes, want)
	}
}

// TestSnapshotSealAt: the seal point starts a horizon after the first
// record, follows the oldest open triplet after each flush, and a record
// reaching it seals that triplet on arrival.
func TestSnapshotSealAt(t *testing.T) {
	pl := testPipeline(t)
	g := lcg(31)
	recs := journey(&g, "dev-1", t0)
	eng, err := NewEngine(pl, Config{Shards: 1, FlushEvery: 1 << 20, FlushInterval: time.Hour, IdleTimeout: -1, Emitter: newCollect()})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	h := eng.Horizon()

	eng.Ingest(recs[0])
	snap, _ := eng.Snapshot("dev-1")
	if want := recs[0].At.Add(h); !snap.SealAt.Equal(want) {
		t.Fatalf("SealAt after the first record = %v, want first record + horizon %v", snap.SealAt, want)
	}

	// Feed until the trigger has flushed; from then on SealAt is the open
	// triplet's end plus the horizon (or later, behind a freezing
	// neighbour), always ahead of the watermark.
	i := 1
	for ; i < len(recs) && eng.Stats().EvidenceFlushes == 0; i++ {
		eng.Ingest(recs[i])
		eng.Snapshot("dev-1")
	}
	snap, _ = eng.Snapshot("dev-1")
	if eng.Stats().EvidenceFlushes == 0 || len(snap.Provisional) == 0 {
		t.Fatalf("no evidence flush over the journey (snapshot %+v)", snap)
	}
	if !snap.SealAt.IsZero() {
		open := snap.Provisional[0]
		if snap.SealAt.Before(open.To.Add(h)) || !snap.SealAt.After(snap.Watermark) {
			t.Errorf("SealAt %v: want at or after open triplet end + horizon %v and after watermark %v",
				snap.SealAt, open.To.Add(h), snap.Watermark)
		}
	}

	// Jump the watermark to exactly the seal point: the open triplet seals
	// on that record, with no sweep and no FlushEvery.
	for ; snap.SealAt.IsZero() && i < len(recs); i++ {
		eng.Ingest(recs[i])
		snap, _ = eng.Snapshot("dev-1")
	}
	if snap.SealAt.IsZero() {
		t.Fatal("SealAt stayed zero to the end of the journey")
	}
	before := snap.Emitted
	r := recs[len(recs)-1]
	r.At = snap.SealAt
	eng.Ingest(r)
	after, _ := eng.Snapshot("dev-1")
	if after.Emitted <= before {
		t.Errorf("a record at SealAt sealed nothing: emitted %d → %d", before, after.Emitted)
	}
}

// TestLastFlushKeepsSealingFlush: the snapshot's flush breakdown follows
// every flush until one seals, and from then on only flushes that seal.
func TestLastFlushKeepsSealingFlush(t *testing.T) {
	pl := testPipeline(t)
	g := lcg(37)
	recs := journey(&g, "dev-1", t0)
	cfg := manualConfig(newCollect(), 1)
	cfg.Metrics = NewMetrics(obs.NewRegistry())
	eng, err := NewEngine(pl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	var sealing *FlushBreakdown // the last breakdown of a sealing flush
	kept := 0
	for _, r := range recs {
		prev, _ := eng.Snapshot("dev-1")
		eng.Ingest(r)
		eng.Flush()
		snap, _ := eng.Snapshot("dev-1")
		lf := snap.LastFlush
		if lf == nil {
			t.Fatal("instrumented flush left no breakdown")
		}
		switch {
		case snap.Emitted > prev.Emitted:
			if lf.Sealed != snap.Emitted-prev.Emitted {
				t.Fatalf("sealing flush breakdown says %d sealed, emitted %d", lf.Sealed, snap.Emitted-prev.Emitted)
			}
			sealing = lf
		case sealing == nil:
			if lf.Sealed != 0 || (prev.LastFlush != nil && !lf.At.After(prev.LastFlush.At)) {
				t.Fatalf("before any seal the breakdown must follow every flush: %+v after %+v", lf, prev.LastFlush)
			}
		default:
			if *lf != *sealing {
				t.Fatalf("a flush that sealed nothing replaced the breakdown %+v with %+v", sealing, lf)
			}
			kept++
		}
	}
	if sealing == nil || kept == 0 {
		t.Fatalf("journey never sealed and then flushed without sealing (kept %d)", kept)
	}
}

// TestLateRedeliveryIsDuplicate: a redelivered record whose original is
// still in the tail counts as a duplicate even after a seal has moved the
// admission floor past it; a new instant behind the floor is late.
func TestLateRedeliveryIsDuplicate(t *testing.T) {
	pl := testPipeline(t)
	g := lcg(11)
	recs := journey(&g, "dev-1", t0)
	eng, err := NewEngine(pl, manualConfig(newCollect(), 1))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	n := 0
	for _, r := range recs {
		eng.Ingest(r)
		n++
		if eng.Flush(); eng.Stats().TripletsOut > 0 {
			break
		}
	}
	snap, _ := eng.Snapshot("dev-1")
	if snap.AdmissionFloor.IsZero() || !recs[0].At.Before(snap.AdmissionFloor) {
		t.Fatalf("admission floor %v is not past the first record %v", snap.AdmissionFloor, recs[0].At)
	}
	if snap.TailRecords != n {
		t.Fatalf("tail holds %d of %d records; the first one must still be in it", snap.TailRecords, n)
	}
	before := eng.Stats()
	eng.Ingest(recs[0])
	eng.Flush()
	mid := eng.Stats()
	if mid.Duplicates != before.Duplicates+1 || mid.Late != before.Late {
		t.Errorf("redelivered tail record: duplicates %d → %d, late %d → %d; want +1 duplicate, +0 late",
			before.Duplicates, mid.Duplicates, before.Late, mid.Late)
	}
	fresh := recs[0]
	fresh.At = recs[0].At.Add(time.Second)
	eng.Ingest(fresh)
	eng.Flush()
	if st := eng.Stats(); st.Late != mid.Late+1 || st.Duplicates != mid.Duplicates {
		t.Errorf("new instant behind the floor: late %d → %d, duplicates %d → %d; want +1 late",
			mid.Late, st.Late, mid.Duplicates, st.Duplicates)
	}
}

// TestTracedRequestAdoptsOnce: a traced request whose records run past a
// seal point commits its stage spans on that evidence flush; its later
// records must not adopt the session again and add a second set.
func TestTracedRequestAdoptsOnce(t *testing.T) {
	pl := testPipeline(t)
	g := lcg(41)
	recs := journey(&g, "dev-1", t0)
	tr := trace.New(trace.Config{SampleRate: 1})
	eng, err := NewEngine(pl, Config{Shards: 1, FlushEvery: 1 << 20, FlushInterval: time.Hour, IdleTimeout: -1,
		Emitter: newCollect(), Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	id := trace.TraceID{1}
	tc := tr.Force(id)
	for _, r := range recs {
		if err := eng.TryIngest(r, tc); err != nil {
			t.Fatal(err)
		}
	}
	if snap, _ := eng.Snapshot("dev-1"); snap.Emitted == 0 {
		t.Fatal("nothing sealed during the request; the scenario needs an evidence seal")
	}
	got, _ := tr.Get(id)
	count := map[string]int{}
	for _, sp := range got.Spans {
		count[sp.Name]++
	}
	for _, name := range []string{"enqueue", "clean", "annotate", "seal"} {
		if count[name] != 1 {
			t.Errorf("%d %q spans in the trace, want 1 (spans: %v)", count[name], name, count)
		}
	}
}
