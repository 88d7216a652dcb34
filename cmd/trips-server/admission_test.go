package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"trips/internal/obs"
	"trips/internal/online"
	"trips/internal/position"
)

// TestIngestBackpressure429 proves the bounded-admission contract end to
// end over HTTP: with a stalled seal path (the emitter blocks) and a
// 1-slot shard inbox, POST /ingest stops mid-stream with 429 +
// Retry-After and reports how many records made it in — instead of the
// old behavior, which parked the request goroutine on the shard channel
// until the stall cleared. After the stall releases, ingest recovers.
func TestIngestBackpressure429(t *testing.T) {
	release := make(chan struct{})
	var relOnce sync.Once
	unstall := func() { relOnce.Do(func() { close(release) }) }
	emitting := make(chan struct{})
	var once sync.Once
	s, err := load(loadOptions{demo: true, online: online.Config{
		Shards:        1,
		QueueLen:      1,
		FlushEvery:    1,
		FlushInterval: -1,
		IdleTimeout:   -1,
		// The sink behind the warehouse and the views: the seal still runs
		// on the shard worker, so blocking here stalls it.
		Emitter: online.EmitterFunc(func(online.Emission) {
			once.Do(func() { close(emitting) })
			<-release
		}),
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { unstall(); s.p.Close() })
	mux := s.mux()

	// Replay a demo journey as a new device, one record per POST, the way
	// a closed-loop sender does: a 429 means retry the same record. Before
	// the first seal any 429 is transient (the feeder outran the worker's
	// per-record flush), so the loop just retries; once the wrapped emitter
	// stalls the only shard worker, the 1-slot inbox fills for good and the
	// refusal becomes deterministic.
	src := s.results[s.devices[0]].Raw
	recs := make([]position.Record, 0, src.Len())
	for _, r := range src.Records {
		r.Device = "bp-live"
		recs = append(recs, r)
	}
	postOne := func(r position.Record) *httptest.ResponseRecorder {
		ds := position.NewDataset()
		ds.Add(r)
		var body bytes.Buffer
		if err := position.WriteCSV(&body, ds); err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ingest", &body))
		return rec
	}
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
			rec := postOne(recs[i])
			if rec.Code == http.StatusOK {
				break
			}
			if rec.Code != http.StatusTooManyRequests {
				t.Fatalf("ingest status = %d: %s", rec.Code, rec.Body.String())
			}
			runtime.Gosched() // transient backlog: the worker is mid-flush
		}
	}
	if !stalled {
		t.Fatal("journey never sealed a triplet; the workload must cross the horizon")
	}
	if i >= len(recs)-2 {
		t.Fatalf("seal happened only at record %d of %d; no records left to overflow with", i, len(recs))
	}

	// Worker blocked, inbox capacity 1: at most one more record is
	// admitted, then the endpoint must answer 429 + Retry-After.
	var got *httptest.ResponseRecorder
	rejected := false
	for attempt := 0; attempt < 2 && !rejected; attempt++ {
		got = postOne(recs[i])
		i++
		switch got.Code {
		case http.StatusTooManyRequests:
			rejected = true
		case http.StatusOK:
		default:
			t.Fatalf("ingest status = %d: %s", got.Code, got.Body.String())
		}
	}
	if !rejected {
		t.Fatal("full shard inbox with a stalled worker did not yield a 429")
	}
	if ra := got.Result().Header.Get("Retry-After"); ra != ingestRetryAfter {
		t.Errorf("Retry-After = %q, want %q", ra, ingestRetryAfter)
	}
	msg := got.Body.String()
	if !strings.Contains(msg, "backlogged") || !strings.Contains(msg, "records ingested") {
		t.Errorf("429 body lacks backpressure context: %q", msg)
	}

	// The push-back is visible on /metrics: the server-side rejection
	// counter and the engine's backlogged counter both moved.
	mrec := httptest.NewRecorder()
	mux.ServeHTTP(mrec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	samples, err := obs.ParseExposition(mrec.Body)
	if err != nil {
		t.Fatal(err)
	}
	if v := samples["trips_ingest_rejected_total"]; v < 1 {
		t.Errorf("trips_ingest_rejected_total = %v, want >= 1", v)
	}
	if v := samples["trips_online_backlogged_total"]; v < 1 {
		t.Errorf("trips_online_backlogged_total = %v, want >= 1", v)
	}

	// Closed-loop recovery: once the stall clears, the same client retrying
	// eventually gets a 200 — 429 marks pressure, not a poisoned session.
	// The worker drains its backlog first, so honor the Retry-After
	// contract and keep retrying.
	unstall()
	retry := "device,x,y,floor,time\n" +
		"bp-live,5.0,5.0,1F,2017-01-02T10:00:00Z\n" +
		"bp-live,5.1,5.0,1F,2017-01-02T10:00:05Z\n"
	deadline := time.Now().Add(30 * time.Second)
	for {
		rec2 := httptest.NewRecorder()
		mux.ServeHTTP(rec2, httptest.NewRequest(http.MethodPost, "/ingest", strings.NewReader(retry)))
		if rec2.Code == http.StatusOK {
			break
		}
		if rec2.Code != http.StatusTooManyRequests {
			t.Fatalf("post-release ingest status = %d: %s", rec2.Code, rec2.Body.String())
		}
		if time.Now().After(deadline) {
			t.Fatal("ingest still backlogged 30s after the stall released")
		}
		time.Sleep(time.Millisecond)
	}
}
