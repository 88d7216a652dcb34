package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"trips/internal/analytics"
	"trips/internal/dsm"
	"trips/internal/position"
	"trips/internal/semantics"
)

func TestAnalyticsEndpoints(t *testing.T) {
	s := demoServer(t)
	mux := s.mux()
	get := func(t *testing.T, path string, wantCode int, into any) {
		t.Helper()
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != wantCode {
			t.Fatalf("GET %s status = %d, want %d: %s", path, rec.Code, wantCode, rec.Body.String())
		}
		if into != nil && wantCode == http.StatusOK {
			if err := json.NewDecoder(rec.Body).Decode(into); err != nil {
				t.Fatalf("GET %s: %v", path, err)
			}
		}
	}

	// The startup batch translation bootstrapped the views: occupancy rows
	// exist and their visit total matches the warehouse.
	var occ occupancyView
	get(t, "/analytics/occupancy", http.StatusOK, &occ)
	if len(occ.Regions) == 0 || occ.Watermark.IsZero() {
		t.Fatalf("empty occupancy after bootstrap: %+v", occ)
	}
	var visits int64
	for _, r := range occ.Regions {
		visits += r.Visits
	}
	var st analytics.Stats
	get(t, "/analytics", http.StatusOK, &st)
	if st.Trips == 0 || st.Trips != int64(s.p.Warehouse.Stats().Trips) {
		t.Errorf("analytics folded %d trips, warehouse has %d", st.Trips, s.p.Warehouse.Stats().Trips)
	}
	if visits+st.Regionless != st.Trips {
		t.Errorf("visits %d + regionless %d ≠ trips %d", visits, st.Regionless, st.Trips)
	}

	// Flows: shoppers move between regions, so the demo must have some.
	var flows []analytics.Flow
	get(t, "/analytics/flows", http.StatusOK, &flows)
	if len(flows) == 0 {
		t.Fatal("no flows in the demo corpus")
	}
	var filtered []analytics.Flow
	get(t, "/analytics/flows?region="+url.QueryEscape(string(flows[0].From))+"&limit=5", http.StatusOK, &filtered)
	if len(filtered) == 0 || len(filtered) > 5 {
		t.Errorf("filtered flows = %d rows", len(filtered))
	}
	for _, f := range filtered {
		if f.From != flows[0].From && f.To != flows[0].From {
			t.Errorf("flow %v does not touch %s", f, flows[0].From)
		}
	}

	// Dwell by region ID and by semantic tag.
	ref := occ.Regions[0]
	var dwell analytics.DwellStats
	get(t, "/analytics/dwell/"+url.PathEscape(string(ref.RegionID)), http.StatusOK, &dwell)
	if dwell.Count == 0 || dwell.P50 <= 0 || dwell.P50 > dwell.P99 {
		t.Errorf("dwell by ID = %+v", dwell)
	}
	if ref.Region != "" {
		var byTag analytics.DwellStats
		get(t, "/analytics/dwell/"+url.PathEscape(ref.Region), http.StatusOK, &byTag)
		if byTag.RegionID != ref.RegionID {
			t.Errorf("dwell by tag resolved to %s, want %s", byTag.RegionID, ref.RegionID)
		}
	}

	// Top-k: full window covers the corpus; a k cap truncates.
	var top []analytics.RegionCount
	get(t, "/analytics/topk?k=3", http.StatusOK, &top)
	if len(top) == 0 || len(top) > 3 {
		t.Errorf("topk = %+v", top)
	}
	var windowed []analytics.RegionCount
	get(t, "/analytics/topk?window=1m", http.StatusOK, &windowed)
	var whole []analytics.RegionCount
	get(t, "/analytics/topk?k=1000", http.StatusOK, &whole)
	sum := func(rs []analytics.RegionCount) (n int64) {
		for _, r := range rs {
			n += r.Count
		}
		return
	}
	if sum(windowed) >= sum(whole) {
		t.Errorf("1-minute window counted %d of %d total visits — window not applied",
			sum(windowed), sum(whole))
	}

	// Bad inputs 400, unknown regions 404.
	get(t, "/analytics/occupancy?activeWithin=yesterday", http.StatusBadRequest, nil)
	get(t, "/analytics/flows?limit=0", http.StatusBadRequest, nil)
	get(t, "/analytics/flows?region=no-such-region", http.StatusNotFound, nil)
	get(t, "/analytics/topk?k=-1", http.StatusBadRequest, nil)
	get(t, "/analytics/topk?window=0s", http.StatusBadRequest, nil)
	get(t, "/analytics/dwell/no-such-region", http.StatusNotFound, nil)
	get(t, "/analytics/dwell/", http.StatusNotFound, nil)
}

// sseClient reads one SSE stream, decoding data frames into deltas until
// the context ends, the stream closes, or maxDeltas arrive.
func sseClient(ctx context.Context, url string, maxDeltas int) (deltas []analytics.Delta, evicted bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, false, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, false, fmt.Errorf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		return nil, false, fmt.Errorf("content-type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "event: evicted":
			evicted = true
		case strings.HasPrefix(line, "data: "):
			var d analytics.Delta
			if err := json.Unmarshal([]byte(line[len("data: "):]), &d); err != nil {
				return deltas, evicted, fmt.Errorf("bad delta %q: %w", line, err)
			}
			deltas = append(deltas, d)
			if maxDeltas > 0 && len(deltas) >= maxDeltas {
				return deltas, evicted, nil
			}
		}
	}
	// A canceled context or server-side close both end the scan; neither
	// is an error for the churn tests.
	return deltas, evicted, nil
}

// TestSSESubscribersUnderIngest runs many concurrent SSE subscribers over a
// real HTTP server while records stream through POST /ingest, with clients
// churning on and off. Under -race this is the end-to-end concurrency test
// of the subscribe endpoint.
func TestSSESubscribersUnderIngest(t *testing.T) {
	s := demoServer(t)
	srv := httptest.NewServer(s.mux())
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	// Steady readers: each must observe real deltas.
	const readers = 6
	var wg sync.WaitGroup
	results := make([][]analytics.Delta, readers)
	errs := make([]error, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], _, errs[i] = sseClient(ctx, srv.URL+"/analytics/subscribe", 3)
		}(i)
	}

	// Churners: connect, maybe read one delta, disconnect — while the
	// ingest below is publishing.
	var churn sync.WaitGroup
	var churned atomic.Int64
	for i := 0; i < 8; i++ {
		churn.Add(1)
		go func(i int) {
			defer churn.Done()
			for j := 0; j < 5; j++ {
				cctx, ccancel := context.WithTimeout(ctx, time.Duration(5+i)*time.Millisecond)
				sseClient(cctx, srv.URL+"/analytics/subscribe", 1)
				ccancel()
				churned.Add(1)
			}
		}(i)
	}

	// Drive live trips through the full pipeline: replay a demo device's
	// records as fresh devices until every steady reader saw its deltas.
	src := s.results[s.devices[0]].Raw
	for round := 0; ; round++ {
		ds := position.NewDataset()
		for _, r := range src.Records {
			r.Device = position.DeviceID(fmt.Sprintf("sse-%d", round))
			r.At = r.At.Add(time.Duration(round) * 24 * time.Hour)
			ds.Add(r)
		}
		var body bytes.Buffer
		if err := position.WriteCSV(&body, ds); err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(srv.URL+"/ingest", "text/csv", &body)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		// Sealing needs the engine's timer or more watermark progress;
		// nudge with a flush and check whether the readers are done.
		s.p.Engine.Flush()
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(200 * time.Millisecond):
			if ctx.Err() != nil {
				t.Fatal("timed out waiting for SSE readers")
			}
			continue
		}
		break
	}
	churn.Wait()

	for i := 0; i < readers; i++ {
		if errs[i] != nil {
			t.Errorf("reader %d: %v", i, errs[i])
		}
		if len(results[i]) == 0 {
			t.Errorf("reader %d saw no deltas", i)
		}
		for _, d := range results[i] {
			if d.Device == "" || d.From.IsZero() {
				t.Errorf("reader %d got malformed delta %+v", i, d)
			}
		}
	}
	if churned.Load() != 40 {
		t.Errorf("churned %d connections, want 40", churned.Load())
	}

	// Every subscriber must be detached once its connection is gone.
	cancel()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st := s.p.Analytics.Stats(); st.Subscribers == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("subscribers leaked: %+v", s.p.Analytics.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSSESlowConsumerEvicted connects a subscriber that never reads and
// floods the views until the hub evicts it — the server-side protection
// against a stalled client pinning ingest. The flood runs until the socket
// buffers and then the hub's subscriber buffer are full.
func TestSSESlowConsumerEvicted(t *testing.T) {
	s := demoServer(t)
	srv := httptest.NewServer(s.mux())
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/analytics/subscribe", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	an := s.p.Analytics
	// Wait for the handler to attach before flooding.
	deadline := time.Now().Add(5 * time.Second)
	for an.Stats().Subscribers == 0 {
		if time.Now().After(deadline) {
			t.Fatal("subscriber never attached")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Never read resp.Body: the handler keeps writing until the socket
	// buffers fill and it blocks, the hub buffer fills behind it, and the
	// hub evicts. Deltas flow directly into the views.
	at := time.Date(2017, 1, 2, 10, 0, 0, 0, time.UTC)
	for i := 0; i < 500_000 && s.p.Analytics.Stats().Evicted == 0; i++ {
		an.IngestTrip("flood", semantics.Triplet{
			Event:    semantics.EventStay,
			Region:   "Flood",
			RegionID: dsm.RegionID("flood-region"),
			From:     at,
			To:       at.Add(30 * time.Second),
		})
		at = at.Add(time.Minute)
	}
	st := s.p.Analytics.Stats()
	if st.Evicted == 0 {
		t.Fatal("slow consumer never evicted")
	}
	if st.Subscribers != 0 {
		t.Errorf("evicted subscriber still attached: %+v", st)
	}

	// The stream must terminate for the client once it finally reads.
	got, _ := io.ReadAll(resp.Body)
	if !bytes.Contains(got, []byte("event: evicted")) && len(got) == 0 {
		t.Error("evicted stream delivered nothing")
	}
}

// TestAnalyticsRebuildEndpoint rebuilds the views via POST
// /analytics/rebuild and proves live subscribers and the running engine's
// tee survive it.
func TestAnalyticsRebuildEndpoint(t *testing.T) {
	s := demoServer(t)
	mux := s.mux()

	// GET is refused.
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/analytics/rebuild", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET status = %d", rec.Code)
	}

	before := s.p.Analytics.Stats()
	sub := s.p.Analytics.Subscribe(nil)
	defer sub.Close()

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/analytics/rebuild", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("POST status = %d: %s", rec.Code, rec.Body.String())
	}
	var after analytics.Stats
	if err := json.NewDecoder(rec.Body).Decode(&after); err != nil {
		t.Fatal(err)
	}
	if after.Trips != before.Trips || after.Trips != int64(s.p.Warehouse.Stats().Trips) {
		t.Errorf("rebuilt views folded %d trips, want %d (warehouse %d)",
			after.Trips, before.Trips, s.p.Warehouse.Stats().Trips)
	}
	select {
	case d := <-sub.C():
		t.Fatalf("subscriber saw a historical delta during rebuild: %+v", d)
	default:
	}

	// The running engine's tee still feeds the rebuilt views, and the
	// subscriber attached before the rebuild still receives its deltas.
	ingestDemoReplay(t, s, mux, "post-rebuild")
	s.p.Engine.Flush()
	select {
	case d := <-sub.C():
		if d.Device != "post-rebuild" {
			t.Errorf("post-rebuild delta = %+v", d)
		}
	case <-time.After(2 * time.Second):
		t.Error("subscriber lost across rebuild")
	}
	if st := s.p.Analytics.Stats(); st.Trips <= after.Trips || st.Trips != int64(s.p.Warehouse.Stats().Trips) {
		t.Errorf("tee fold after rebuild: trips = %d (was %d), warehouse %d",
			st.Trips, after.Trips, s.p.Warehouse.Stats().Trips)
	}
}

// TestAnalyticsSnapshotAcrossRestart boots with -store, shuts down (final
// snapshot), and reboots: the views come back identical, loaded from the
// snapshot rather than a full re-bootstrap.
func TestAnalyticsSnapshotAcrossRestart(t *testing.T) {
	storeDir := t.TempDir()
	// The periodic writer idles at this interval; Close writes the final cut.
	s1, err := load(loadOptions{demo: true, storeDir: storeDir, snapshotEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	first := s1.p.Analytics.Snapshot()
	if err := s1.p.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := load(loadOptions{demo: true, storeDir: storeDir, snapshotEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s2.p.Close() })
	second := s2.p.Analytics.Snapshot()
	a, _ := json.Marshal(first)
	b, _ := json.Marshal(second)
	if !bytes.Equal(a, b) {
		t.Errorf("views diverge across restart:\nbefore: %s\nafter:  %s", a, b)
	}
	if st := s2.p.Analytics.Stats(); st.LastSnapshot.IsZero() {
		t.Error("restarted server does not report the loaded snapshot")
	}
}

// TestSlowSubscriberUnderSustainedIngest is the load-shaped companion to
// TestSSESlowConsumerEvicted: a subscriber that never drains must be
// evicted while real traffic flows through POST /ingest → seal → fold,
// without stalling ingest and without inflating the freshness SLO. The
// transport-level eviction (socket backpressure, "event: evicted"
// trailer) is covered by the SSE test; this one pins the pipeline
// contract on /metrics.
func TestSlowSubscriberUnderSustainedIngest(t *testing.T) {
	s := demoServer(t)
	mux := s.mux()

	sub := s.p.Analytics.Subscribe(nil) // never drained: the slow consumer
	defer sub.Close()

	// Sustained load: full demo journeys through the real ingest path until
	// the subscriber's buffer overflows. ingestDemoReplay fails the test on
	// any non-200, so a stalled or pushed-back ingest (the failure eviction
	// exists to prevent) cannot pass.
	var total int
	for i := 0; i < 50 && s.p.Analytics.Stats().Evicted == 0; i++ {
		total += ingestDemoReplay(t, s, mux, fmt.Sprintf("slow-sub-%d", i))
		s.p.Engine.Flush() // seal with arrival stamps → folds → hub publishes
	}

	samples := scrape(t, mux)
	if v := samples["trips_analytics_subscriber_evictions_total"]; v < 1 {
		t.Errorf("trips_analytics_subscriber_evictions_total = %v, want >= 1", v)
	}
	for range sub.C() {
	} // the hub closed the channel; drain the buffered prefix
	if !sub.Evicted() {
		t.Error("subscriber channel closed but Evicted() = false")
	}

	// Ingest kept flowing: every replayed record was admitted.
	if v := samples["trips_online_records_total"]; v < float64(total) {
		t.Errorf("trips_online_records_total = %v, want >= %d", v, total)
	}
	// Freshness observed and bounded: the eviction means no fold ever
	// waited on the dead subscriber, so ingest→visible stays wall-clock
	// small even though the replayed event time spans hours.
	count := samples["trips_freshness_seconds_count"]
	if count <= 0 {
		t.Fatalf("trips_freshness_seconds_count = %v, want > 0", count)
	}
	if avg := samples["trips_freshness_seconds_sum"] / count; avg > 30 {
		t.Errorf("mean freshness = %vs; a slow subscriber must not back up the pipeline", avg)
	}
}
