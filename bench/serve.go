package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"trips/internal/dsm"
	"trips/internal/position"
	"trips/internal/tripstore"
)

// opKind is one kind of call in the dashboard script.
type opKind uint8

const (
	opInsert    opKind = iota // Warehouse.Insert + analytics.IngestTrip, the tee path
	opDevice                  // one device's whole timeline
	opRegion                  // one region over a 30-minute window
	opRange                   // first page of a 10-minute window over all trips
	opOccupancy               // analytics reads
	opTopK
	opFlows
	opDwell
	numOpKinds
)

var opNames = [numOpKinds]string{"insert", "device", "region", "range", "occupancy", "topk", "flows", "dwell"}

// mixPattern is one cycle of the script: 50 % inserts, 15 % device
// timelines, 10 % region windows, 10 % range pages, 15 % analytics reads.
// The script repeats a seeded shuffle of it, so the shares are exact.
var mixPattern = [20]opKind{
	opInsert, opInsert, opInsert, opInsert, opInsert, opInsert, opInsert, opInsert, opInsert, opInsert,
	opDevice, opDevice, opDevice,
	opRegion, opRegion,
	opRange, opRange,
	opOccupancy, opTopK, opFlows, // opDwell takes every other opFlows slot
}

const (
	flushEveryOps = 4096 // Warehouse.Flush cadence of the script
	rangePage     = 100  // Limit of the range-page query
)

// op is one scripted call with the answer it must give.
type op struct {
	kind   opKind
	trip   tripstore.Trip      // opInsert
	spec   tripstore.QuerySpec // warehouse reads
	region dsm.RegionID        // opFlows, opDwell
	want   int                 // warehouse reads: rows the oracle counted
}

// script is the fixed sequence of dashboard and tee-path calls a pass
// replays against the store its ingest phase built.
type script struct {
	ops     []op
	inserts int
}

// buildScript derives n ops from the trips an ingest phase stores. Reads
// target those base trips; inserts replay them as new devices on later
// days, so they share every region posting list and the global time index
// with the rows being read (an insert dirties the index the next read must
// re-sort) without ever changing a read's answer. That keeps the oracle a
// plain scan of the base list: each read's expected row count is counted
// here, independently of the warehouse's indexes, and is at least 1.
func buildScript(seed int64, base []tripstore.Trip, n int) (*script, error) {
	base = dedupe(base)
	if len(base) == 0 {
		return nil, fmt.Errorf("script: no base trips")
	}
	var regional []int // base trips that carry a region id
	for i := range base {
		if base[i].Triplet.RegionID != "" {
			regional = append(regional, i)
		}
	}
	if len(regional) == 0 {
		return nil, fmt.Errorf("script: no base trip has a region")
	}
	// One replica round of inserts lands a whole number of days past the
	// last base trip, so no read window ever reaches an inserted row.
	first, last := base[0].Triplet.From, base[0].Triplet.To
	for i := range base {
		if t := base[i].Triplet; t.From.Before(first) {
			first = t.From
		} else if t.To.After(last) {
			last = t.To
		}
	}
	const day = 24 * time.Hour
	round := (last.Sub(first)/day + 1) * day
	ix := newOracle(base)

	rng := rand.New(rand.NewSource(seed))
	pattern := mixPattern
	rng.Shuffle(len(pattern), func(i, j int) { pattern[i], pattern[j] = pattern[j], pattern[i] })

	sc := &script{ops: make([]op, 0, n)}
	flows := 0
	for i := 0; i < n; i++ {
		o := op{kind: pattern[i%len(pattern)]}
		switch o.kind {
		case opInsert:
			k := sc.inserts / len(base) // replica round
			t := base[sc.inserts%len(base)]
			t.Device = position.DeviceID(fmt.Sprintf("%s~%d", t.Device, k))
			shift := time.Duration(k+1) * round
			t.Triplet.From = t.Triplet.From.Add(shift)
			t.Triplet.To = t.Triplet.To.Add(shift)
			o.trip = t
			sc.inserts++
		case opDevice:
			o.spec = tripstore.QuerySpec{Device: base[rng.Intn(len(base))].Device}
		case opRegion:
			t := base[regional[rng.Intn(len(regional))]].Triplet
			since := t.From.Add(-time.Duration(rng.Intn(15)) * time.Minute)
			o.spec = tripstore.QuerySpec{RegionID: t.RegionID, Since: since, Until: since.Add(30 * time.Minute)}
		case opRange:
			since := base[rng.Intn(len(base))].Triplet.From.Add(-time.Duration(rng.Intn(5)) * time.Minute)
			o.spec = tripstore.QuerySpec{Since: since, Until: since.Add(10 * time.Minute), Limit: rangePage}
		case opFlows:
			o.region = base[regional[rng.Intn(len(regional))]].Triplet.RegionID
			if flows++; flows%2 == 0 {
				o.kind = opDwell
			}
		}
		if o.kind == opDevice || o.kind == opRegion || o.kind == opRange {
			o.want = ix.count(o.spec)
			if o.want == 0 {
				return nil, fmt.Errorf("script: op %d (%s) expects no rows", i, opNames[o.kind])
			}
		}
		sc.ops = append(sc.ops, o)
	}
	return sc, nil
}

// dedupe keeps the first trip per (device, start instant), the identity the
// warehouse stores by, ordered by device then start so replayed inserts
// reach the views in per-device timeline order.
func dedupe(trips []tripstore.Trip) []tripstore.Trip {
	out := append([]tripstore.Trip(nil), trips...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Device != out[j].Device {
			return out[i].Device < out[j].Device
		}
		return out[i].Triplet.From.Before(out[j].Triplet.From)
	})
	keep := out[:0]
	for i, t := range out {
		if i > 0 && t.Device == out[i-1].Device && t.Triplet.From.Equal(out[i-1].Triplet.From) {
			continue
		}
		keep = append(keep, t)
	}
	return keep
}

// oracle counts the rows a read must return. It shares no code with the
// warehouse's planner: it keeps the base trips grouped by device, by region
// and in start order, and answers a spec by scanning the one group the spec
// names, testing every predicate on every trip in it.
type oracle struct {
	byDevice map[position.DeviceID][]*tripstore.Trip
	byRegion map[dsm.RegionID][]*tripstore.Trip
	byFrom   []*tripstore.Trip // all trips, ascending From
	longest  time.Duration     // longest trip: how far before a window a row can start
}

func newOracle(base []tripstore.Trip) *oracle {
	ix := &oracle{
		byDevice: make(map[position.DeviceID][]*tripstore.Trip),
		byRegion: make(map[dsm.RegionID][]*tripstore.Trip),
	}
	for i := range base {
		t := &base[i]
		ix.byDevice[t.Device] = append(ix.byDevice[t.Device], t)
		if id := t.Triplet.RegionID; id != "" {
			ix.byRegion[id] = append(ix.byRegion[id], t)
		}
		ix.byFrom = append(ix.byFrom, t)
		ix.longest = max(ix.longest, t.Triplet.Duration())
	}
	sort.SliceStable(ix.byFrom, func(i, j int) bool {
		return ix.byFrom[i].Triplet.From.Before(ix.byFrom[j].Triplet.From)
	})
	return ix
}

func (ix *oracle) count(q tripstore.QuerySpec) int {
	var group []*tripstore.Trip
	switch {
	case q.Device != "":
		group = ix.byDevice[q.Device]
	case q.RegionID != "":
		group = ix.byRegion[q.RegionID]
	default:
		// Only trips starting in [Since-longest, Until) can overlap.
		from := q.Since.Add(-ix.longest)
		lo := sort.Search(len(ix.byFrom), func(i int) bool { return !ix.byFrom[i].Triplet.From.Before(from) })
		hi := sort.Search(len(ix.byFrom), func(i int) bool { return !ix.byFrom[i].Triplet.From.Before(q.Until) })
		group = ix.byFrom[lo:hi]
	}
	n := 0
	for _, t := range group {
		if q.Device != "" && t.Device != q.Device {
			continue
		}
		if q.RegionID != "" && t.Triplet.RegionID != q.RegionID {
			continue
		}
		if !q.Since.IsZero() && !(t.Triplet.From.Before(q.Until) && q.Since.Before(t.Triplet.To)) {
			continue
		}
		n++
	}
	if q.Limit > 0 && n > q.Limit {
		n = q.Limit
	}
	return n
}

// served is what one replay of the script measured.
type served struct {
	stopwatch                       // the whole script, its flushes and snapshot included
	lat       [numOpKinds][]float64 // per-op latency in µs, by kind
	scanned   int                   // index entries the warehouse reads examined
	rows      int                   // rows they returned
	failed    int
	// failedBy counts the failed ops by kind, for the operator.
	failedBy [numOpKinds]int
}

// serve replays the script against sys: one closed-loop client, so byte,
// row and flush counts repeat exactly. Every read is checked against the
// oracle; an erroring call or a wrong row count is a failed op.
// A traced run times the two halves of an insert apart and calls wrote after
// every step that writes files.
func serve(sys *system, sc *script, tr *tracer, wrote func()) (served, error) {
	var res served
	var insert, fold time.Duration
	for k := range res.lat {
		res.lat[k] = make([]float64, 0, len(sc.ops)/4)
	}
	sp := tr.start("serve")
	res.start()
	for i := range sc.ops {
		o := &sc.ops[i]
		ok := true
		t0 := time.Now()
		switch o.kind {
		case opInsert:
			err := sys.wh.Insert(o.trip)
			ok = err == nil
			if tr != nil {
				t1 := time.Now()
				insert += t1.Sub(t0)
				sys.an.IngestTrip(o.trip.Device, o.trip.Triplet)
				fold += time.Since(t1)
				break
			}
			sys.an.IngestTrip(o.trip.Device, o.trip.Triplet)
		case opDevice, opRegion, opRange:
			page, err := sys.wh.Query(o.spec)
			ok = err == nil && len(page.Trips) == o.want
			res.scanned += page.Scanned
			res.rows += len(page.Trips)
		case opOccupancy:
			ok = len(sys.an.Occupancy(0)) > 0
		case opTopK:
			n := len(sys.an.TopK(5, 0))
			ok = n > 0 && n <= 5
		case opFlows:
			n := len(sys.an.Flows(o.region, 10))
			ok = n > 0 && n <= 10
		case opDwell:
			_, ok = sys.an.Dwell(o.region)
		}
		res.lat[o.kind] = append(res.lat[o.kind], float64(time.Since(t0).Nanoseconds())/1e3)
		if !ok {
			res.failed++
			res.failedBy[o.kind]++
		}
		switch {
		case (i+1)%flushEveryOps == 0:
			f := tr.start("tripstore.Flush")
			err := sys.wh.Flush()
			f.end(1)
			if err != nil {
				return res, err
			}
			wrote()
		case i == len(sc.ops)/2:
			// Once mid-script, as a periodic snapshot would land: full
			// warehouse dump with segment truncation, then the views.
			wrote()
			f := tr.start("tripstore.Snapshot")
			err := sys.wh.Snapshot()
			f.end(1)
			if err != nil {
				return res, err
			}
			f = tr.start("analytics.SaveSnapshot")
			err = sys.an.SaveSnapshot(sys.snapshotOptions())
			f.end(1)
			if err != nil {
				return res, err
			}
			wrote()
		}
	}
	res.stop()
	tr.record("tripstore.Insert", res.first, insert, sc.inserts)
	tr.record("analytics.IngestTrip", res.first.Add(insert), fold, sc.inserts)
	sp.end(len(sc.ops))
	return res, nil
}

// reads concatenates the latencies of every read kind.
func (s *served) reads() []float64 {
	var out []float64
	for k := opDevice; k < numOpKinds; k++ {
		out = append(out, s.lat[k]...)
	}
	return out
}
