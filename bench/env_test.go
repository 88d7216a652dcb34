package main

import (
	"hash/fnv"
	"testing"

	"trips/internal/position"
)

// recordsDigest hashes a record stream through its CSV form.
func recordsDigest(t *testing.T, recs []position.Record) uint64 {
	t.Helper()
	body, err := encodeCSV(recs)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(body)
	return h.Sum64()
}

func TestGeneratorIsAFunctionOfTheSeed(t *testing.T) {
	stream := func(seed int64) (fleet, long uint64) {
		e, err := newEnv(seed, 40, 2)
		if err != nil {
			t.Fatal(err)
		}
		return recordsDigest(t, interleaved(e.fleet)), recordsDigest(t, longSessions(e, seed, 4, 300, 2))
	}
	f1, l1 := stream(7)
	f2, l2 := stream(7)
	f3, l3 := stream(8)
	if f1 != f2 || l1 != l2 {
		t.Errorf("same seed, different streams: fleet %x vs %x, long %x vs %x", f1, f2, l1, l2)
	}
	if f1 == f3 || l1 == l3 {
		t.Errorf("different seeds, same stream: fleet %x, long %x", f1, l1)
	}
}

func TestLongSessionsSpreadEvenlyOverShards(t *testing.T) {
	e, err := newEnv(1, 40, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2, 4} {
		perShard := make([]int, shards)
		seen := map[position.DeviceID]bool{}
		for _, r := range longSessions(e, 3, 8, 50, shards) {
			if !seen[r.Device] {
				seen[r.Device] = true
				perShard[shardOf(r.Device, shards)]++
			}
		}
		for sh, n := range perShard {
			if n != 8/shards {
				t.Errorf("%d shards: shard %d got %d of 8 devices", shards, sh, n)
			}
		}
	}
}

func TestCSVRoundTripsThroughTheSystemsParser(t *testing.T) {
	e, err := newEnv(1, 40, 2)
	if err != nil {
		t.Fatal(err)
	}
	recs := interleaved(e.fleet)
	body, err := encodeCSV(recs)
	if err != nil {
		t.Fatal(err)
	}
	back, err := parseCSV(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(recs) {
		t.Fatalf("parsed %d records of %d", len(back), len(recs))
	}
	// Parsing what was parsed and re-encoded must be a fixed point: the
	// pre-parsed workloads feed what the CSV workloads produce.
	if a, b := recordsDigest(t, back), recordsDigest(t, recs); a != b {
		t.Errorf("re-encoded stream differs: %x vs %x", a, b)
	}
	for i := 1; i < len(back); i++ {
		if back[i].At.Before(back[i-1].At) {
			t.Fatalf("record %d goes back in time", i)
		}
	}
}
