package main

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"trips/internal/core"
	"trips/internal/dsm"
	"trips/internal/experiments"
	"trips/internal/position"
	"trips/internal/simul"
)

// env is the part of a run's input every workload shares: the venue, a
// simulated shopper fleet with a translator trained on it, all derived from
// the seed. The program under test never sees the seed, only the records
// and bytes made from it.
type env struct {
	model *dsm.Model
	trans *core.Translator
	fleet *position.Dataset
	exp   *experiments.Env // kept for LongSessionRecords
}

// fleetWindow is the opening-hours window shoppers arrive in.
const fleetWindow = 4 * time.Hour

// newEnv simulates devices shoppers over the window, labels training
// segments from their ground truth and trains the translator — the
// deterministic, single-threaded bulk of setup_s.
func newEnv(seed int64, devices, par int) (*env, error) {
	exp, err := experiments.NewEnv(experiments.EnvSpec{
		Floors: 3, Shops: 6, Devices: devices, Seed: seed,
		Window: fleetWindow, Errors: simul.DefaultErrorModel(),
	})
	if err != nil {
		return nil, err
	}
	exp.Trans.Workers = par
	return &env{model: exp.Model, trans: exp.Trans, fleet: exp.Raw, exp: exp}, nil
}

// interleaved returns every fleet record ordered by time (device id breaks
// ties): the shape a venue's positioning feed has, many short sessions side
// by side.
func interleaved(ds *position.Dataset) []position.Record {
	out := make([]position.Record, 0, ds.NumRecords())
	for _, s := range ds.Sequences() {
		out = append(out, s.Records...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if !out[i].At.Equal(out[j].At) {
			return out[i].At.Before(out[j].At)
		}
		return out[i].Device < out[j].Device
	})
	return out
}

// encodeCSV renders records in the order given, in the row format of
// position.WriteCSV (which can only write a dataset device by device).
func encodeCSV(recs []position.Record) ([]byte, error) {
	var buf bytes.Buffer
	buf.Grow(64 * len(recs))
	cw := csv.NewWriter(&buf)
	if err := cw.Write([]string{"device", "x", "y", "floor", "time"}); err != nil {
		return nil, err
	}
	row := make([]string, 5)
	for _, r := range recs {
		row[0] = string(r.Device)
		row[1] = strconv.FormatFloat(r.P.X, 'f', 3, 64)
		row[2] = strconv.FormatFloat(r.P.Y, 'f', 3, 64)
		row[3] = r.Floor.String()
		row[4] = r.At.UTC().Format("2006-01-02T15:04:05.000Z07:00")
		if err := cw.Write(row); err != nil {
			return nil, err
		}
	}
	cw.Flush()
	return buf.Bytes(), cw.Error()
}

// parseCSV is the inverse of encodeCSV through the system's own parser, so
// pre-parsed workloads feed exactly the records the CSV workloads produce.
func parseCSV(body []byte) ([]position.Record, error) {
	var out []position.Record
	_, err := position.StreamCSV(bytes.NewReader(body), func(r position.Record) error {
		out = append(out, r)
		return nil
	})
	return out, err
}

// longSessions builds devices continuous journeys of n records each (no
// hard break, so the session tail only ever grows until MaxTail trims it)
// and interleaves them by time. The journey itself is a fixed function of
// the venue; the seed names the devices and shifts each one's clock. Names
// are drawn until the engine's shards each get the same number of devices:
// with this few sessions an uneven draw would make throughput a lottery of
// the seed rather than a property of the system.
func longSessions(e *env, seed int64, devices, n, shards int) []position.Record {
	rng := rand.New(rand.NewSource(seed))
	ds := position.NewDataset()
	perShard := make([]int, shards)
	for d := 0; d < devices; {
		dev := position.DeviceID(fmt.Sprintf("lt.%04x.%02d", rng.Intn(1<<16), d))
		if sh := shardOf(dev, shards); perShard[sh] <= d/shards {
			perShard[sh]++
		} else {
			continue
		}
		shift := time.Duration(rng.Intn(3600)) * time.Second
		recs := experiments.LongSessionRecords(e.exp, dev, n)
		for i := range recs {
			recs[i].At = recs[i].At.Add(shift)
		}
		ds.AddSequence(&position.Sequence{Device: dev, Records: recs})
		d++
	}
	return interleaved(ds)
}

// shardOf is the online engine's documented routing rule: FNV-1a over the
// device id, modulo the shard count.
func shardOf(dev position.DeviceID, shards int) int {
	h := fnv.New32a()
	h.Write([]byte(dev))
	return int(h.Sum32() % uint32(shards))
}
