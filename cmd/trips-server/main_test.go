package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"trips/internal/analytics"
	"trips/internal/pipeline"
	"trips/internal/position"
	"trips/internal/tripstore"
)

func demoServer(t *testing.T) *server {
	t.Helper()
	s, err := load(loadOptions{demo: true})
	if err != nil {
		t.Fatalf("load demo: %v", err)
	}
	t.Cleanup(func() { s.p.Close() })
	return s
}

func TestLoadRequiresInputs(t *testing.T) {
	if _, err := load(loadOptions{}); err == nil {
		t.Error("missing inputs accepted")
	}
}

func TestIndexPage(t *testing.T) {
	s := demoServer(t)
	rec := httptest.NewRecorder()
	s.handleIndex(rec, httptest.NewRequest(http.MethodGet, "/", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	body := rec.Body.String()
	if !strings.Contains(body, "TRIPS") || !strings.Contains(body, "/device/") {
		t.Errorf("index body missing content")
	}
	// Non-root paths 404.
	rec2 := httptest.NewRecorder()
	s.handleIndex(rec2, httptest.NewRequest(http.MethodGet, "/nope", nil))
	if rec2.Code != http.StatusNotFound {
		t.Errorf("non-root status = %d", rec2.Code)
	}
}

func TestDevicePage(t *testing.T) {
	s := demoServer(t)
	dev := string(s.devices[0])
	rec := httptest.NewRecorder()
	s.handleDevice(rec, httptest.NewRequest(http.MethodGet, "/device/"+dev, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{"<svg", "Timeline", "Mobility semantics", dev} {
		if !strings.Contains(body, want) {
			t.Errorf("device page missing %q", want)
		}
	}
	// Unknown device 404s.
	rec2 := httptest.NewRecorder()
	s.handleDevice(rec2, httptest.NewRequest(http.MethodGet, "/device/ghost", nil))
	if rec2.Code != http.StatusNotFound {
		t.Errorf("unknown device status = %d", rec2.Code)
	}
}

// TestLiveSealsOnEvidence: the smoke feed's 15:15:00 record is the
// evidence that seals the first dwell, so /live serves it as sealed right
// after the ingest, with sealAt naming when the open second dwell can seal.
func TestLiveSealsOnEvidence(t *testing.T) {
	s := demoServer(t)
	mux := s.mux()
	body := strings.ReplaceAll(smokeTraceCSV, "trace-dev", "evidence-1")
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ingest", strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("ingest status = %d: %s", rec.Code, rec.Body.String())
	}
	rec2 := httptest.NewRecorder()
	mux.ServeHTTP(rec2, httptest.NewRequest(http.MethodGet, "/live/evidence-1", nil))
	if rec2.Code != http.StatusOK {
		t.Fatalf("live status = %d", rec2.Code)
	}
	var view liveView
	if err := json.NewDecoder(rec2.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	if st := s.p.Engine.Stats(); st.EvidenceFlushes == 0 {
		t.Errorf("no evidence flush after the ingest: %+v", st)
	}
	if len(view.Sealed) == 0 || len(view.Provisional) == 0 {
		t.Fatalf("want the first dwell sealed and the second open: %+v", view)
	}
	open := time.Date(2017, 1, 1, 15, 15, 0, 0, time.UTC)
	if min := open.Add(s.p.Engine.Horizon()); view.SealAt.Before(min) || !view.SealAt.After(view.Watermark) {
		t.Errorf("sealAt = %v, want at or after %v and after the watermark %v", view.SealAt, min, view.Watermark)
	}
}

func TestIngestAndLive(t *testing.T) {
	s := demoServer(t)
	mux := s.mux()

	// Replay one demo device's raw records as a fresh live device.
	src := s.results[s.devices[0]].Raw
	ds := position.NewDataset()
	for _, r := range src.Records {
		r.Device = "live-1"
		ds.Add(r)
	}
	var body bytes.Buffer
	if err := position.WriteCSV(&body, ds); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ingest", &body))
	if rec.Code != http.StatusOK {
		t.Fatalf("ingest status = %d: %s", rec.Code, rec.Body.String())
	}
	var resp map[string]int
	if err := json.NewDecoder(rec.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp["records"] != src.Len() {
		t.Errorf("ingested %d records, want %d", resp["records"], src.Len())
	}

	// The live view must show the device immediately (provisional
	// annotation recomputes on demand, no flush needed).
	rec2 := httptest.NewRecorder()
	mux.ServeHTTP(rec2, httptest.NewRequest(http.MethodGet, "/live/live-1", nil))
	if rec2.Code != http.StatusOK {
		t.Fatalf("live status = %d", rec2.Code)
	}
	var view liveView
	if err := json.NewDecoder(rec2.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	if view.TailRecords == 0 && len(view.Sealed) == 0 {
		t.Errorf("live view empty: %+v", view)
	}
	if len(view.Sealed)+len(view.Provisional) == 0 {
		t.Error("no triplets, sealed or provisional")
	}

	// Unknown device 404s; wrong method 405s; bad payload 400s.
	rec3 := httptest.NewRecorder()
	mux.ServeHTTP(rec3, httptest.NewRequest(http.MethodGet, "/live/ghost", nil))
	if rec3.Code != http.StatusNotFound {
		t.Errorf("unknown live device status = %d", rec3.Code)
	}
	rec4 := httptest.NewRecorder()
	mux.ServeHTTP(rec4, httptest.NewRequest(http.MethodGet, "/ingest", nil))
	if rec4.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /ingest status = %d", rec4.Code)
	}
	rec5 := httptest.NewRecorder()
	mux.ServeHTTP(rec5, httptest.NewRequest(http.MethodPost, "/ingest",
		strings.NewReader("not,a,record\n")))
	if rec5.Code != http.StatusBadRequest {
		t.Errorf("bad payload status = %d", rec5.Code)
	}
}

// TestIngestStreamsUntilBadRow: ingest streams records into the engine as
// they parse, so a malformed row mid-stream fails the request with the row
// number and the count already ingested — and the valid prefix is really
// in the engine.
func TestIngestStreamsUntilBadRow(t *testing.T) {
	s := demoServer(t)
	mux := s.mux()
	before := s.p.Engine.Stats().RecordsIn
	body := "device,x,y,floor,time\n" +
		"stream-1,5.0,5.0,1F,2017-01-01T15:00:00Z\n" +
		"stream-1,5.2,5.1,1F,2017-01-01T15:00:05Z\n" +
		"stream-1,bogus,5.2,1F,2017-01-01T15:00:10Z\n" +
		"stream-1,5.4,5.3,1F,2017-01-01T15:00:15Z\n"
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ingest", strings.NewReader(body)))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", rec.Code)
	}
	msg := rec.Body.String()
	if !strings.Contains(msg, "row 4") || !strings.Contains(msg, "2 records ingested") {
		t.Errorf("error lacks row number or ingested count: %q", msg)
	}
	s.p.Engine.Flush() // barrier: drain the shard inboxes before reading stats
	if got := s.p.Engine.Stats().RecordsIn - before; got != 2 {
		t.Errorf("engine ingested %d records, want the 2 before the bad row", got)
	}
}

func TestStatsEndpoint(t *testing.T) {
	s := demoServer(t)
	rec := httptest.NewRecorder()
	s.mux().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("stats status = %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "recordsIn") {
		t.Errorf("stats body missing counters: %s", rec.Body.String())
	}
}

func TestTripsEndpoints(t *testing.T) {
	s := demoServer(t)
	mux := s.mux()
	get := func(t *testing.T, path string, wantCode int) tripstore.Page {
		t.Helper()
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != wantCode {
			t.Fatalf("GET %s status = %d, want %d: %s", path, rec.Code, wantCode, rec.Body.String())
		}
		var page tripstore.Page
		if wantCode == http.StatusOK {
			if err := json.NewDecoder(rec.Body).Decode(&page); err != nil {
				t.Fatalf("GET %s: %v", path, err)
			}
		}
		return page
	}

	// The batch translation landed in the warehouse at startup.
	all := get(t, "/trips?limit=1000", http.StatusOK)
	if len(all.Trips) == 0 {
		t.Fatal("warehouse empty after startup translation")
	}
	wantTotal := 0
	for _, res := range s.results {
		wantTotal += res.Final.Len()
	}
	if len(all.Trips) != wantTotal {
		t.Errorf("GET /trips returned %d trips, batch produced %d", len(all.Trips), wantTotal)
	}

	// Pagination walks the same set.
	var walked int
	path := "/trips?limit=7"
	for {
		page := get(t, path, http.StatusOK)
		walked += len(page.Trips)
		if page.Next == "" {
			break
		}
		path = "/trips?limit=7&cursor=" + page.Next
	}
	if walked != wantTotal {
		t.Errorf("paginated walk saw %d trips, want %d", walked, wantTotal)
	}

	// Device endpoint matches the device's batch result.
	dev := s.devices[0]
	devPage := get(t, "/trips/"+string(dev)+"?limit=1000", http.StatusOK)
	if want := s.results[dev].Final.Len(); len(devPage.Trips) != want {
		t.Errorf("GET /trips/%s returned %d trips, want %d", dev, len(devPage.Trips), want)
	}
	for _, tr := range devPage.Trips {
		if tr.Device != dev {
			t.Fatalf("foreign device %s in /trips/%s", tr.Device, dev)
		}
	}

	// Time-filtered region query: pick the region and span of a real trip
	// and expect at least that trip back, every hit overlapping the range
	// and in the region.
	ref := all.Trips[len(all.Trips)/2]
	region := ref.Triplet.Region
	since := ref.Triplet.From.UTC().Format(time.RFC3339)
	until := ref.Triplet.To.UTC().Format(time.RFC3339)
	q := "/trips?region=" + url.QueryEscape(region) + "&since=" + url.QueryEscape(since) + "&until=" + url.QueryEscape(until)
	page := get(t, q, http.StatusOK)
	if len(page.Trips) == 0 {
		t.Fatalf("region+time query %s returned nothing", q)
	}
	found := false
	for _, tr := range page.Trips {
		if tr.Triplet.Region != region {
			t.Errorf("region query returned %q trip", tr.Triplet.Region)
		}
		if !tr.Triplet.Overlaps(ref.Triplet.From, ref.Triplet.To) {
			t.Errorf("trip %v outside [%s, %s)", tr.Triplet, since, until)
		}
		if tr.Device == ref.Device && tr.Seq == ref.Seq {
			found = true
		}
	}
	if !found {
		t.Error("region+time query missed the reference trip")
	}

	// /regions/{id}/visits accepts the region ID and the semantic tag.
	if id := ref.Triplet.RegionID; id != "" {
		byID := get(t, "/regions/"+url.PathEscape(string(id))+"/visits?limit=1000", http.StatusOK)
		if len(byID.Trips) == 0 {
			t.Errorf("/regions/%s/visits empty", id)
		}
	}
	byTag := get(t, "/regions/"+url.PathEscape(region)+"/visits?limit=1000", http.StatusOK)
	if len(byTag.Trips) == 0 {
		t.Errorf("/regions/%s/visits (tag) empty", region)
	}
	// A ?device= filter narrows visits to that device.
	byDev := get(t, "/regions/"+url.PathEscape(region)+"/visits?device="+url.QueryEscape(string(ref.Device))+"&limit=1000", http.StatusOK)
	if len(byDev.Trips) == 0 || len(byDev.Trips) > len(byTag.Trips) {
		t.Errorf("device-filtered visits = %d of %d; filter not applied", len(byDev.Trips), len(byTag.Trips))
	}
	for _, tr := range byDev.Trips {
		if tr.Device != ref.Device {
			t.Errorf("visits?device=%s returned %s", ref.Device, tr.Device)
		}
	}

	// Warehouse stats counts what /trips returned.
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/warehouse", nil))
	var st tripstore.Stats
	if err := json.NewDecoder(rec.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Trips != wantTotal || st.Devices != len(s.devices) {
		t.Errorf("warehouse stats = %+v, want %d trips over %d devices", st, wantTotal, len(s.devices))
	}

	// Bad inputs: malformed params 400, unknown region 404, POST 405.
	get(t, "/trips?since=yesterday", http.StatusBadRequest)
	get(t, "/trips?limit=-3", http.StatusBadRequest)
	get(t, "/trips?cursor=!!!", http.StatusBadRequest)
	get(t, "/regions/no-such-region/visits", http.StatusNotFound)
	get(t, "/regions/oops", http.StatusNotFound)
	rec2 := httptest.NewRecorder()
	mux.ServeHTTP(rec2, httptest.NewRequest(http.MethodPost, "/trips", nil))
	if rec2.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /trips status = %d", rec2.Code)
	}
}

// TestOnlineIngestReachesWarehouse replays records through POST /ingest
// and expects the engine's sealed triplets to become queryable.
func TestOnlineIngestReachesWarehouse(t *testing.T) {
	s := demoServer(t)
	mux := s.mux()

	src := s.results[s.devices[0]].Raw
	ds := position.NewDataset()
	for _, r := range src.Records {
		r.Device = "wh-live"
		ds.Add(r)
	}
	var body bytes.Buffer
	if err := position.WriteCSV(&body, ds); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ingest", &body))
	if rec.Code != http.StatusOK {
		t.Fatalf("ingest status = %d", rec.Code)
	}
	s.p.Engine.Close() // seal every open session → warehouse

	rec2 := httptest.NewRecorder()
	mux.ServeHTTP(rec2, httptest.NewRequest(http.MethodGet, "/trips/wh-live", nil))
	var page tripstore.Page
	if err := json.NewDecoder(rec2.Body).Decode(&page); err != nil {
		t.Fatal(err)
	}
	if len(page.Trips) == 0 {
		t.Error("online-sealed triplets not in warehouse")
	}
	for i, tr := range page.Trips {
		if tr.Seq != i {
			t.Errorf("trip %d has seq %d; warehouse order broken", i, tr.Seq)
		}
	}
}

// TestLiveTripsForBatchDevice regression-tests the dedupe identity: a
// device already warehoused by the startup batch translation keeps
// accumulating NEW live trips (the online engine's seq restarts at 0, so
// seq-keyed dedupe would silently drop them all).
func TestLiveTripsForBatchDevice(t *testing.T) {
	s := demoServer(t)
	mux := s.mux()
	dev := s.devices[0]
	batchCount := s.results[dev].Final.Len()

	// Replay the device's own records shifted well past the batch
	// window: same device ID, genuinely new trips.
	ds := position.NewDataset()
	for _, r := range s.results[dev].Raw.Records {
		r.At = r.At.Add(24 * time.Hour)
		ds.Add(r)
	}
	var body bytes.Buffer
	if err := position.WriteCSV(&body, ds); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ingest", &body))
	if rec.Code != http.StatusOK {
		t.Fatalf("ingest status = %d", rec.Code)
	}
	s.p.Engine.Close() // seal → warehouse

	rec2 := httptest.NewRecorder()
	mux.ServeHTTP(rec2, httptest.NewRequest(http.MethodGet, "/trips/"+string(dev)+"?limit=1000", nil))
	var page tripstore.Page
	if err := json.NewDecoder(rec2.Body).Decode(&page); err != nil {
		t.Fatal(err)
	}
	if len(page.Trips) <= batchCount {
		t.Errorf("device %s has %d warehoused trips after live ingest, batch alone had %d — live trips were dropped",
			dev, len(page.Trips), batchCount)
	}
}

// TestWarehousePersistsAcrossRestart boots the server with -store, kills
// it, boots a second instance over the same directory, and expects the
// same answers — without rerunning any translation.
func TestWarehousePersistsAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	s1, err := load(loadOptions{demo: true, storeDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	q := "/trips?limit=1000"
	rec := httptest.NewRecorder()
	s1.mux().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, q, nil))
	var first tripstore.Page
	if err := json.NewDecoder(rec.Body).Decode(&first); err != nil {
		t.Fatal(err)
	}
	if err := s1.p.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := load(loadOptions{demo: true, storeDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s2.p.Close() })
	rec2 := httptest.NewRecorder()
	s2.mux().ServeHTTP(rec2, httptest.NewRequest(http.MethodGet, q, nil))
	var second tripstore.Page
	if err := json.NewDecoder(rec2.Body).Decode(&second); err != nil {
		t.Fatal(err)
	}
	if len(first.Trips) == 0 || len(first.Trips) != len(second.Trips) {
		t.Fatalf("restart changed the answer: %d trips then %d", len(first.Trips), len(second.Trips))
	}
	// The demo re-translates at startup; dedupe must have absorbed the
	// re-ingestion rather than doubling the warehouse.
	if st := s2.p.Warehouse.Stats(); st.Duplicates == 0 {
		t.Error("expected re-ingested duplicates to be counted, not stored")
	}
}

// TestRunClosesPipelineOnListenFailure: a port clash after a durable boot
// must not skip the shutdown order — the startup trips still in the pending
// segment reach disk and the final view snapshot is written.
func TestRunClosesPipelineOnListenFailure(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	storeDir := t.TempDir()
	err = run(context.Background(), runOptions{addr: ln.Addr().String(), load: loadOptions{
		demo: true, storeDir: storeDir, snapshotEvery: time.Hour,
	}})
	if err == nil {
		t.Fatal("run served on a taken port")
	}

	want := demoServer(t).p.Warehouse.Stats().Trips
	st, err := pipeline.OpenStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	wh, err := pipeline.OpenWarehouse(st, tripstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer wh.Close()
	if got := wh.Stats().Trips; got != want {
		t.Errorf("reopened store holds %d trips, the startup translation produced %d", got, want)
	}
	an, err := pipeline.OpenViews(analytics.Config{}, st)
	if err != nil {
		t.Fatal(err)
	}
	if st := an.Stats(); st.LastSnapshot.IsZero() || st.Trips != int64(want) {
		t.Errorf("final view snapshot: %+v, want %d trips", st, want)
	}
}

func TestDevicePageFloorAndHide(t *testing.T) {
	s := demoServer(t)
	dev := string(s.devices[0])
	rec := httptest.NewRecorder()
	s.handleDevice(rec, httptest.NewRequest(http.MethodGet,
		"/device/"+dev+"?floor=2F&hide=raw,truth", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	body := rec.Body.String()
	if !strings.Contains(body, "floor 2F") {
		t.Error("floor switch not applied")
	}
	if !strings.Contains(body, "☐ raw") {
		t.Error("hidden source not reflected in toggles")
	}
	if !strings.Contains(body, "☑ cleaned") {
		t.Error("visible source not reflected in toggles")
	}
}

// FuzzParseTripQuery: whatever query string a client sends, a spec that
// parses carries a page size in [1, 1000].
func FuzzParseTripQuery(f *testing.F) {
	for _, q := range []string{
		"",
		"limit=5",
		"limit=0",
		"limit=-1",
		"limit=1000",
		"limit=1001",
		"limit=99999999999999999999",
		"limit=5&limit=0",
		"since=2017-01-01T00:00:00Z&until=1483228800000&inferred=true&limit=2000",
		"inferred=maybe",
		"limit=%zz",
	} {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, rawQuery string) {
		spec, err := parseTripQuery(&http.Request{URL: &url.URL{RawQuery: rawQuery}})
		if err == nil && (spec.Limit < 1 || spec.Limit > 1000) {
			t.Fatalf("parseTripQuery(%q).Limit = %d, want [1, 1000]", rawQuery, spec.Limit)
		}
	})
}
