package trace

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceIDParseFormat(t *testing.T) {
	id, ok := ParseTraceID("00112233445566778899aabbccddeeff")
	if !ok {
		t.Fatal("valid trace id rejected")
	}
	if got := id.String(); got != "00112233445566778899aabbccddeeff" {
		t.Fatalf("round trip = %q", got)
	}
	for _, bad := range []string{
		"",
		"0011",
		"00112233445566778899aabbccddeefg",   // non-hex
		"00000000000000000000000000000000",   // zero sentinel
		"00112233445566778899aabbccddeeff00", // too long
		"X0112233445566778899aabbccddeeff",   // non-hex first
	} {
		if _, ok := ParseTraceID(bad); ok {
			t.Errorf("ParseTraceID(%q) accepted", bad)
		}
	}
}

// FuzzParseTraceID: an inbound X-Trace-Id is accepted exactly when it is
// 32 hex digits, not all zero, and an accepted ID renders back as the same
// digits in lower case.
func FuzzParseTraceID(f *testing.F) {
	for _, s := range []string{
		"00112233445566778899aabbccddeeff",
		"00112233445566778899AABBCCDDEEFF",
		"00000000000000000000000000000000",
		"00000000000000000000000000000001",
		"00112233445566778899aabbccddeefg",
		"0011",
		"",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		id, ok := ParseTraceID(s)
		hexDigits := len(s) == 32 && strings.Trim(s, "0123456789abcdefABCDEF") == ""
		if want := hexDigits && strings.Trim(s, "0") != ""; ok != want {
			t.Fatalf("ParseTraceID(%q) ok = %v, want %v", s, ok, want)
		}
		if ok && id.String() != strings.ToLower(s) {
			t.Fatalf("ParseTraceID(%q).String() = %q", s, id.String())
		}
	})
}

func TestSamplingRates(t *testing.T) {
	// Rate 0: IDs are still issued (log correlation) but nothing samples.
	tr := New(Config{SampleRate: 0})
	for i := 0; i < 100; i++ {
		c := tr.Sample()
		if c.Trace.IsZero() {
			t.Fatal("unsampled context has no trace id")
		}
		if c.Sampled() {
			t.Fatal("rate 0 produced a sampled context")
		}
	}
	if s := tr.Stats(); s.Sampled != 0 {
		t.Fatalf("sampled count at rate 0 = %d", s.Sampled)
	}
	// A span started from an unsampled context must be inert.
	sp := tr.Start(tr.Sample(), "noop")
	if sp.t != nil {
		t.Fatal("span active under unsampled context")
	}
	sp.End()
	if s := tr.Stats(); s.Kept != 0 || s.Pending != 0 {
		t.Fatalf("inert span reached assembly: %+v", s)
	}

	// Rate 1: every roll samples.
	tr = New(Config{SampleRate: 1})
	for i := 0; i < 100; i++ {
		if !tr.Sample().Sampled() {
			t.Fatal("rate 1 produced an unsampled context")
		}
	}

	// Force: sampled and pinned regardless of rate.
	tr = New(Config{SampleRate: 0})
	id, _ := ParseTraceID("00112233445566778899aabbccddeeff")
	c := tr.Force(id)
	if !c.Sampled() || !c.Forced() || c.Trace != id {
		t.Fatalf("Force = %+v", c)
	}
	if _, ok := ParseTraceID(TraceID{}.String()); ok {
		t.Fatal("zero id parsed")
	}

	// Nil tracer: everything is a no-op.
	var nilT *Tracer
	if c := nilT.Sample(); c.Sampled() || !c.Trace.IsZero() {
		t.Fatalf("nil Sample = %+v", c)
	}
	nsp := nilT.Start(Ctx{Flags: FlagSampled}, "x")
	nsp.SetErr()
	nsp.End()
	if got := nilT.Stats(); got != (Stats{}) {
		t.Fatalf("nil Stats = %+v", got)
	}
}

// endTrace records a terminal span, which finalizes the trace.
func endTrace(tr *Tracer, c Ctx) {
	sp := tr.Start(c, terminalSpan)
	sp.End()
}

func TestRingEvictionOrder(t *testing.T) {
	tr := New(Config{SampleRate: 1, RingSize: 4})
	mkTrace := func(dev string, pin bool) TraceID {
		c := tr.Sample()
		sp := tr.Start(c, "work")
		sp.SetDevice(dev)
		if pin {
			sp.SetErr()
		}
		sp.End()
		done := tr.Start(c, terminalSpan)
		done.End()
		return c.Trace
	}

	var ids []TraceID
	for i := 0; i < 6; i++ {
		ids = append(ids, mkTrace(fmt.Sprintf("dev-%d", i), false))
	}
	// Unpinned FIFO: the 4 newest survive, oldest two evicted.
	for _, id := range ids[:2] {
		if _, ok := tr.Get(id); ok {
			t.Errorf("evicted trace %s still present", id)
		}
	}
	got := tr.Traces(Filter{})
	if len(got) != 4 {
		t.Fatalf("ring size = %d, want 4", len(got))
	}
	// Newest first.
	for i, want := range []TraceID{ids[5], ids[4], ids[3], ids[2]} {
		if got[i].ID != want {
			t.Errorf("ring[%d] = %s, want %s", i, got[i].ID, want)
		}
	}
	if s := tr.Stats(); s.Evicted != 2 || s.Kept != 6 {
		t.Fatalf("stats = %+v, want evicted 2 kept 6", s)
	}

	// A pinned trace outlives younger unpinned ones.
	pinned := mkTrace("pin-dev", true) // evicts ids[2]
	for i := 0; i < 3; i++ {
		mkTrace(fmt.Sprintf("later-%d", i), false)
	}
	if p, ok := tr.Get(pinned); !ok || !p.Pinned || !p.Err {
		t.Fatalf("pinned trace gone or unpinned: ok=%v %+v", ok, p)
	}

	// All pinned: the oldest pinned is evicted.
	small := New(Config{SampleRate: 1, RingSize: 2})
	var pinnedIDs []TraceID
	for i := 0; i < 3; i++ {
		c := small.Sample()
		sp := small.Start(c, "work")
		sp.SetErr()
		sp.End()
		endTrace(small, c)
		pinnedIDs = append(pinnedIDs, c.Trace)
	}
	if _, ok := small.Get(pinnedIDs[0]); ok {
		t.Error("oldest pinned trace survived a fully-pinned eviction")
	}
	if _, ok := small.Get(pinnedIDs[2]); !ok {
		t.Error("newest pinned trace missing")
	}
}

func TestTailKeepDecisions(t *testing.T) {
	tr := New(Config{SampleRate: 1, KeepOver: 10 * time.Millisecond})
	now := time.Now()

	// Fast, clean, unforced: not pinned.
	fast := tr.Sample()
	sp := tr.Start(fast, "work")
	sp.SetStart(now)
	sp.EndAt(now.Add(time.Millisecond))
	done := tr.Start(fast, terminalSpan)
	done.SetStart(now.Add(time.Millisecond))
	done.EndAt(now.Add(2 * time.Millisecond))
	if got, ok := tr.Get(fast.Trace); !ok || got.Pinned {
		t.Fatalf("fast trace: ok=%v pinned=%v, want kept unpinned", ok, got.Pinned)
	}

	// Slow: pinned by the latency threshold.
	slow := tr.Sample()
	sp = tr.Start(slow, "work")
	sp.SetStart(now)
	sp.EndAt(now.Add(50 * time.Millisecond))
	done = tr.Start(slow, terminalSpan)
	done.SetStart(now.Add(50 * time.Millisecond))
	done.EndAt(now.Add(51 * time.Millisecond))
	if got, ok := tr.Get(slow.Trace); !ok || !got.Pinned {
		t.Fatalf("slow trace not pinned: ok=%v %+v", ok, got)
	}

	// Errored: pinned and flagged.
	errc := tr.Sample()
	sp = tr.Start(errc, "work")
	sp.SetStart(now)
	sp.SetErr()
	sp.EndAt(now.Add(time.Millisecond))
	endTrace(tr, errc)
	if got, ok := tr.Get(errc.Trace); !ok || !got.Pinned || !got.Err {
		t.Fatalf("errored trace: ok=%v %+v", ok, got)
	}

	// Forced (inbound X-Trace-Id): pinned even when fast and clean.
	id, _ := ParseTraceID("00112233445566778899aabbccddeeff")
	fc := tr.Force(id)
	sp = tr.Start(fc, "work")
	sp.SetStart(now)
	sp.EndAt(now.Add(time.Millisecond))
	endTrace(tr, fc)
	if got, ok := tr.Get(id); !ok || !got.Pinned || !got.Forced {
		t.Fatalf("forced trace: ok=%v %+v", ok, got)
	}
}

func TestLingerFinalizesIncompleteTraces(t *testing.T) {
	tr := New(Config{SampleRate: 1, Linger: 5 * time.Millisecond})
	c := tr.Sample()
	sp := tr.Start(c, "orphan")
	sp.End()
	if got, ok := tr.Get(c.Trace); !ok || got.Complete {
		t.Fatalf("pre-linger: ok=%v complete=%v, want pending snapshot", ok, got.Complete)
	}
	if s := tr.Stats(); s.Kept != 0 {
		t.Fatalf("trace finalized before linger: %+v", s)
	}
	time.Sleep(10 * time.Millisecond)
	got, ok := tr.Get(c.Trace)
	if !ok || got.Complete {
		t.Fatalf("post-linger: ok=%v complete=%v, want finalized incomplete", ok, got.Complete)
	}
	if s := tr.Stats(); s.Kept != 1 || s.Pending != 0 {
		t.Fatalf("post-linger stats = %+v", s)
	}
}

// TestLateSpanJoinsCompletedTrace: a span recorded after its trace finalized
// (SSE delivery after the fold) is appended to the completed entry.
func TestLateSpanJoinsCompletedTrace(t *testing.T) {
	tr := New(Config{SampleRate: 1})
	c := tr.Sample()
	root := tr.Start(c, "work")
	root.End()
	endTrace(tr, c)

	late := tr.Start(c, "sse_deliver")
	late.End()
	got, ok := tr.Get(c.Trace)
	if !ok {
		t.Fatal("trace missing")
	}
	names := map[string]bool{}
	for _, s := range got.Spans {
		names[s.Name] = true
	}
	if !names["sse_deliver"] {
		t.Fatalf("late span not absorbed: %v", names)
	}
}

// TestCompletesWithoutQuery: recording alone finalizes traces — the terminal
// span completes its trace on the spot, and a later span of any trace runs
// the linger sweep — with no query in between (Stats does not sweep).
func TestCompletesWithoutQuery(t *testing.T) {
	tr := New(Config{SampleRate: 1, Linger: 5 * time.Millisecond})
	c := tr.Sample()
	sp := tr.Start(c, "work")
	sp.End()
	if s := tr.Stats(); s.Kept != 0 || s.Pending != 1 {
		t.Fatalf("before the terminal span: %+v, want kept 0 pending 1", s)
	}
	endTrace(tr, c)
	if s := tr.Stats(); s.Kept != 1 || s.Pending != 0 {
		t.Fatalf("after the terminal span: %+v, want kept 1 pending 0", s)
	}

	orphan := tr.Sample()
	sp = tr.Start(orphan, "orphan")
	sp.End()
	time.Sleep(10 * time.Millisecond)
	if s := tr.Stats(); s.Kept != 1 || s.Pending != 1 {
		t.Fatalf("Stats swept the lingering trace: %+v", s)
	}
	sp = tr.Start(tr.Sample(), "other")
	sp.End()
	if s := tr.Stats(); s.Kept != 2 || s.Pending != 1 {
		t.Fatalf("after another trace's span: %+v, want the orphan kept and the new trace pending", s)
	}
}

// TestConcurrentRecordDrain is the -race assertion for recording under the
// tracer's mutex: many writers record while readers query concurrently, and
// the accounting is exact — every recorded span sits in a kept or a pending
// trace, none is lost.
func TestConcurrentRecordDrain(t *testing.T) {
	const writers = 8
	const perWriter = 200
	// Nothing lingers out or is evicted, so every trace stays inspectable.
	tr := New(Config{SampleRate: 1, RingSize: writers * perWriter, Linger: time.Hour})

	// Every fourth trace never sees its terminal span and stays pending.
	terminated := func(i int) bool { return i%4 != 3 }
	ids := make([][]TraceID, writers)
	var writing sync.WaitGroup
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func(w int) {
			defer writing.Done()
			for i := 0; i < perWriter; i++ {
				c := tr.Sample()
				ids[w] = append(ids[w], c.Trace)
				sp := tr.Start(c, "work")
				sp.SetDevice(fmt.Sprintf("dev-%d", w))
				sp.SetShard(w)
				sp.End()
				if terminated(i) {
					endTrace(tr, c)
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	var reading sync.WaitGroup
	for r := 0; r < 2; r++ {
		reading.Add(1)
		go func() {
			defer reading.Done()
			for {
				select {
				case <-stop:
					return
				default:
					for _, got := range tr.Traces(Filter{Limit: 8}) {
						tr.Get(got.ID)
					}
					tr.Stats()
				}
			}
		}()
	}
	writing.Wait()
	close(stop)
	reading.Wait()

	const wantKept = writers * perWriter * 3 / 4
	const wantPending = writers*perWriter - wantKept
	if s := tr.Stats(); s.Sampled != writers*perWriter || s.Kept != wantKept ||
		s.Pending != wantPending || s.Ring != wantKept || s.Evicted != 0 {
		t.Fatalf("stats = %+v, want sampled %d kept %d pending %d evicted 0",
			s, writers*perWriter, wantKept, wantPending)
	}
	for w := range ids {
		for i, id := range ids[w] {
			got, ok := tr.Get(id)
			wantSpans := 1
			if terminated(i) {
				wantSpans = 2
			}
			if !ok || got.Complete != terminated(i) || len(got.Spans) != wantSpans {
				t.Fatalf("writer %d trace %d: ok=%v complete=%v spans=%d, want complete=%v spans=%d",
					w, i, ok, got.Complete, len(got.Spans), terminated(i), wantSpans)
			}
		}
	}
}

func TestViewStages(t *testing.T) {
	tr := New(Config{SampleRate: 1})
	c := tr.Sample()
	now := time.Now()
	for i, name := range []string{"clean", "clean", terminalSpan} {
		sp := tr.Start(c, name)
		sp.SetStart(now.Add(time.Duration(i) * 10 * time.Millisecond))
		sp.EndAt(now.Add(time.Duration(i)*10*time.Millisecond + 5*time.Millisecond))
	}
	got, ok := tr.Get(c.Trace)
	if !ok {
		t.Fatal("trace missing")
	}
	v := got.View()
	if len(v.Spans) != 3 {
		t.Fatalf("spans = %d", len(v.Spans))
	}
	if v.Stages["clean"] < 9.9 || v.Stages["clean"] > 10.1 {
		t.Fatalf("clean stage sum = %v ms, want ~10", v.Stages["clean"])
	}
	if !v.Complete {
		t.Fatal("view not complete")
	}
	if v.ID != c.Trace.String() {
		t.Fatalf("view id = %s", v.ID)
	}
}

func BenchmarkSampleUnsampled(b *testing.B) {
	tr := New(Config{SampleRate: 0})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := tr.Sample()
		sp := tr.Start(c, "work")
		sp.End()
	}
}

func BenchmarkRecordSampled(b *testing.B) {
	tr := New(Config{SampleRate: 1})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := tr.Sample()
		sp := tr.Start(c, "work")
		sp.End()
	}
}
