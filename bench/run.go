package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"trips/internal/tripstore"
)

// setupBuilds is how many times the inputs are built; setup_s takes the
// median build, so one slow build does not move it.
const setupBuilds = 3

// run is one workload being measured.
type run struct {
	w    *workload
	cfg  *config
	in   *inputs
	tr   *tracer // nil unless traced
	dirs int     // store directories made so far
}

// pass is what one ingest pass measured: the workload's load shape into a
// fresh store, through the final flush and close.
type pass struct {
	ing     ingested
	fresh   tails // freshness samples, ms
	late    tails // open loop: lateness of each tick, ms
	records int   // size of the ingest phase
	heap    uint64
	dupes   int    // emissions the warehouse dropped as (device, From) duplicates
	digest  uint64 // translation output, observed triplets
	failed  int
	why     []string // one line per failed check, for the operator
	mem     memDelta // allocator activity of the pass
	written int64    // traced: bytes the pass wrote, every file created or rewritten
}

// stored is the closed store an ingest pass left on disk, with what the
// dashboard rounds need to know about it.
type stored struct {
	dir   string
	views uint64           // digest of the live views at close
	trips []tripstore.Trip // what the pass emitted: the script is built on them
}

// round is one replay of the dashboard script: boot a copy of a closed
// store, run the script, close, boot again and compare.
type round struct {
	sv      served
	lat     [numOpKinds]tails // script latencies by kind, µs
	reads   tails             // every read kind together, µs
	trips   int               // warehoused trips at close
	dropped int64             // trips the views dropped as out of order
	disk    int64             // bytes under the store directory after Close
	files   int
	reopen  stopwatch // the boot after the script
	written int64     // traced: bytes the script and its close wrote
	failed  int
	why     []string
}

// tails is a sample set reduced to the quantiles the metrics use, so a
// pass does not keep its raw samples alive into the next pass's heap. p99
// and p999 are capped at the highest percentile the sample supports with
// ten samples beyond it (tailQuantile); at the measured sizes that cap only
// ever binds p999.
type tails struct {
	n                   int
	p50, p99, p999, max float64
}

func reduce(samples []float64) tails {
	s := sortedCopy(samples)
	if len(s) == 0 {
		return tails{}
	}
	top := tailQuantile(len(s))
	return tails{len(s), percentile(s, 0.5), percentile(s, min(0.99, top)), percentile(s, min(0.999, top)), s[len(s)-1]}
}

// memDelta is the allocator and collector activity over a phase.
type memDelta struct {
	bytes, mallocs uint64
	cycles         uint32
	pause          time.Duration
}

func readMem() (ms runtime.MemStats) {
	runtime.ReadMemStats(&ms)
	return ms
}

func (d *memDelta) since(before runtime.MemStats) {
	after := readMem()
	d.bytes = after.TotalAlloc - before.TotalAlloc
	d.mallocs = after.Mallocs - before.Mallocs
	d.cycles = after.NumGC - before.NumGC
	d.pause = time.Duration(after.PauseTotalNs - before.PauseTotalNs)
}

// newDir names a fresh store directory.
func (r *run) newDir() string {
	r.dirs++
	return filepath.Join(r.cfg.tmp, fmt.Sprintf("store-%d", r.dirs))
}

// ingestPass ingests into a fresh store, checks what came out and closes
// it. The caller removes st.dir.
func (r *run) ingestPass() (p pass, st stored, err error) {
	p.records = r.in.records
	st.dir = r.newDir()
	// A traced pass also accounts every byte written under its store.
	var watch *dirWatcher
	if r.tr != nil {
		watch = &dirWatcher{seen: make(map[string]fileStamp)}
	}

	// Every timed phase starts right after a collection, so that where the
	// next cycle falls is set by what the phase itself allocates and not by
	// how far the heap had grown when it began.
	runtime.GC()
	before := readMem()
	sys, err := openSystem(st.dir, r.cfg.par, r.tr)
	if err != nil {
		return p, st, err
	}
	col := &collector{}
	if p.ing, err = r.w.ingest(r, sys, col); err != nil {
		return p, st, err
	}
	p.mem.since(before)
	p.heap = p.ing.heap
	p.fresh = reduce(p.ing.fresh)
	lateMS := make([]float64, len(p.ing.late))
	for i, d := range p.ing.late {
		lateMS[i] = float64(d.Nanoseconds()) / 1e6
	}
	p.late = reduce(lateMS)
	p.ing.fresh, p.ing.late = nil, nil
	p.digest = tripsDigest(col.trips)
	r.checkIngest(&p, sys, col)
	p.dupes = sys.wh.Stats().Duplicates
	if st.views, err = sys.viewsDigest(); err != nil {
		return p, st, err
	}
	if err := sys.wh.Close(); err != nil {
		return p, st, err
	}
	p.written = watch.scan(st.dir)
	st.trips = col.trips
	return p, st, nil
}

// script derives the dashboard script from the trips a pass stored. The
// oracle's expected row counts are counted over those very trips, so a
// script only fits the store of the pass it was built from.
func (r *run) script(st stored) (*script, error) {
	return buildScript(r.cfg.seed, st.trips, r.cfg.scaled(r.w.scriptOps, 400))
}

// oneRound boots a copy of the closed store st (which must reproduce the
// views the live system had), replays the script against it, closes, and
// times the boot from what the script left on disk.
func (r *run) oneRound(st stored, sc *script) (rd round, err error) {
	dir := r.newDir()
	defer os.RemoveAll(dir)
	if err := os.CopyFS(dir, os.DirFS(st.dir)); err != nil {
		return rd, err
	}
	var watch *dirWatcher
	if r.tr != nil {
		watch = &dirWatcher{seen: make(map[string]fileStamp)}
		watch.scan(dir) // the copy itself is not the system's writing: mark it seen
	}
	wrote := func() { rd.written += watch.scan(dir) }
	sys, err := openSystem(dir, r.cfg.par, r.tr)
	if err != nil {
		return rd, err
	}
	fail := func(format string, a ...any) {
		rd.failed++
		rd.why = append(rd.why, fmt.Sprintf(format, a...))
	}
	if v, err := sys.viewsDigest(); err != nil || v != st.views {
		fail("views booted from the ingest's store differ from the live ones (%016x vs %016x, err %v)", v, st.views, err)
	}
	runtime.GC()
	if rd.sv, err = serve(sys, sc, r.tr, wrote); err != nil {
		return rd, err
	}
	if rd.sv.failed > 0 {
		rd.failed += rd.sv.failed
		why := fmt.Sprintf("%d script ops failed:", rd.sv.failed)
		for k, n := range rd.sv.failedBy {
			if n > 0 {
				why += fmt.Sprintf(" %d %s", n, opNames[k])
			}
		}
		rd.why = append(rd.why, why)
	}
	for k := range rd.lat {
		rd.lat[k] = reduce(rd.sv.lat[k])
	}
	rd.reads = reduce(rd.sv.reads())
	rd.sv.lat = [numOpKinds][]float64{}

	rd.trips, rd.dropped = sys.wh.Stats().Trips, sys.an.Stats().OutOfOrder
	after, err := sys.viewsDigest()
	if err != nil {
		return rd, err
	}
	sp := r.tr.start("tripstore.Close")
	err = sys.wh.Close()
	sp.end(1)
	if err != nil {
		return rd, err
	}
	if rd.disk, rd.files, err = dirBytes(dir); err != nil {
		return rd, err
	}
	wrote()

	runtime.GC()
	sp = r.tr.start("reopen")
	rd.reopen.start()
	again, err := openSystem(dir, r.cfg.par, r.tr)
	rd.reopen.stop()
	sp.end(rd.trips)
	if err != nil {
		return rd, err
	}
	if n := again.wh.Stats().Trips; n != rd.trips {
		fail("reopened warehouse holds %d trips, had %d at close", n, rd.trips)
	}
	if v, err := again.viewsDigest(); err != nil || v != after {
		fail("reopened views differ from those at close (%016x vs %016x, err %v)", v, after, err)
	}
	return rd, again.wh.Close()
}

// checkIngest is the output oracle of the ingest phase: every record sent
// was admitted, none late or duplicate, and the trips the engine emitted
// are the trips the warehouse stored (modulo its dedupe) and the views
// folded. Every violation is a failed op.
func (r *run) checkIngest(p *pass, sys *system, col *collector) {
	check := func(ok bool, format string, a ...any) {
		if !ok {
			p.failed++
			p.why = append(p.why, fmt.Sprintf(format, a...))
		}
	}
	emitted := len(col.trips)
	check(emitted > 0, "no trips emitted")
	if e := p.ing.engine; e != nil {
		check(e.RecordsIn == int64(r.in.records), "engine admitted %d of %d records", e.RecordsIn, r.in.records)
		check(e.Late == 0 && e.Duplicates == 0, "engine dropped %d late and %d duplicate records", e.Late, e.Duplicates)
		check(e.TripletsOut == int64(emitted), "engine counts %d emissions, the sink got %d", e.TripletsOut, emitted)
	}
	wh, an := sys.wh.Stats(), sys.an.Stats()
	check(wh.Trips+wh.Duplicates == emitted, "warehouse holds %d trips + %d duplicates of %d emitted", wh.Trips, wh.Duplicates, emitted)
	check(an.Trips+an.OutOfOrder == int64(emitted), "views folded %d trips + %d out of order of %d emitted", an.Trips, an.OutOfOrder, emitted)
	check(wh.DroppedEmissions == 0, "warehouse dropped %d emissions", wh.DroppedEmissions)
}

// dirWatcher accounts the bytes written under store directories: each scan
// adds the size of every file that is new or has changed since the last
// one. Scans follow every Flush and Snapshot, so a file rewritten in place
// (a snapshot) is counted each time and the total is the write volume, not
// the final size. Segments truncated between two scans are missed; scans
// are placed so that there are none.
type dirWatcher struct {
	seen map[string]fileStamp
}

type fileStamp struct {
	size int64
	mod  time.Time
}

func (w *dirWatcher) scan(dir string) (written int64) {
	if w == nil {
		return 0 // untraced pass
	}
	filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return nil // a file swept mid-walk: nothing to account
		}
		info, err := d.Info()
		if err != nil {
			return nil
		}
		now := fileStamp{info.Size(), info.ModTime()}
		if w.seen[path] != now {
			w.seen[path] = now
			written += now.size
		}
		return nil
	})
	return written
}
