package annotation

import (
	"testing"
	"time"

	"trips/internal/geom"
)

// TestIncrementalAnnotateSteadyStateZeroAlloc guards the incremental
// annotator's steady state: with the caches warm, re-annotating unchanged
// sequences (stable == Len, the posture of a flush that admitted no new
// records past the frontier) must not allocate. Every stage writes into
// reused buffers — density flags, the SoA column projection, the snippet
// caches rebuilt in place, the Work's build lists, and the output
// sequence — so the only per-call work is the suffix scans themselves. Two
// Incrementals of different lengths share one Work and alternate, the way a
// shard's sessions take turns.
//
//trips:guards cutAt
//trips:guards smoothedAt
//trips:guards repoint
func TestIncrementalAnnotateSteadyStateZeroAlloc(t *testing.T) {
	a := growAnnotator(t, DefaultConfig())
	g := lcg(7)
	long := seqFrom(
		stayRecords(&g, geom.Pt(5, 15), 1, t0, 80, 5*time.Second),
		walkRecords(&g, geom.Pt(5, 7), geom.Pt(27, 7), 1, t0.Add(7*time.Minute), 2*time.Second),
		stayRecords(&g, geom.Pt(25, 15), 1, t0.Add(12*time.Minute), 80, 5*time.Second),
	)
	short := seqFrom(shopperDay(&g, 60))
	var shared Work
	incLong, incShort := a.NewIncremental(), a.NewIncremental()
	incLong.Work, incShort.Work = &shared, &shared
	// Warm: the first round computes from scratch, the second sizes every
	// reused buffer at the sequences' footprints.
	incLong.Annotate(long, 0)
	incShort.Annotate(short, 0)
	if out := incLong.Annotate(long, long.Len()); len(out.Triplets) == 0 {
		t.Fatal("no triplets annotated; the steady state under test is empty")
	}
	incShort.Annotate(short, short.Len())

	if avg := testing.AllocsPerRun(200, func() {
		incLong.Annotate(long, long.Len())
		incShort.Annotate(short, short.Len())
	}); avg != 0 {
		t.Errorf("steady-state Incremental.Annotate over a shared Work allocates %.2f times per round, want 0", avg)
	}
}
