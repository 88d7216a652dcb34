package loadgen

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"trips/internal/obs/trace"
)

// Results is the measured outcome of one load run: client-side counters
// from the senders plus server-side deltas scraped from /metrics. Every
// cumulative server series is differenced against a pre-run scrape, so a
// warm server's history never leaks into the numbers.
type Results struct {
	RecordsSent int64   `json:"records_sent"`
	RecordsPerS float64 `json:"records_per_s"`
	ElapsedS    float64 `json:"elapsed_s"`

	// Freshness is the ingest→seal→analytics-visible pipeline delay
	// (trips_freshness_seconds), quantiles interpolated from the scraped
	// buckets over this run's observations only.
	FreshnessP50S  float64 `json:"freshness_p50_s"`
	FreshnessP99S  float64 `json:"freshness_p99_s"`
	FreshnessCount int64   `json:"freshness_count"`

	IngestRequests int64 `json:"ingest_requests"`
	Rejected429    int64 `json:"rejected_429"`
	Retries        int64 `json:"retries"`
	Reconnects     int64 `json:"reconnects"`
	HTTPErrors     int64 `json:"http_errors"`

	LateRecords         int64 `json:"late_records"`
	DuplicateRecords    int64 `json:"duplicate_records"`
	BackloggedRecords   int64 `json:"backlogged_records"`
	TripletsSealed      int64 `json:"triplets_sealed"`
	TripsFolded         int64 `json:"trips_folded"`
	SubscriberEvictions int64 `json:"subscriber_evictions"`

	// HeapMaxBytes is the largest trips_runtime_heap_alloc_bytes seen by
	// the 250ms sampler during the run.
	HeapMaxBytes int64 `json:"heap_max_bytes"`

	// SlowestTrace is the slowest end-to-end trace the run left in the
	// server's trace ring (profiles with TraceEvery > 0): the worst
	// request's stage breakdown becomes part of the perf artifact. Omitted
	// on untraced runs.
	SlowestTrace *trace.TraceView `json:"slowest_trace,omitempty"`
}

// Runner drives one load run against a live server.
type Runner struct {
	// Addr is the server base URL, e.g. "http://127.0.0.1:8765".
	Addr    string
	Profile Profile
	// Client is the HTTP transport; nil uses a dedicated client with
	// sane timeouts. Slow subscribers always get their own client so
	// their unread bodies can't starve the sender pool's connections.
	Client *http.Client
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

func (r *Runner) logf(format string, args ...any) {
	if r.Logf != nil {
		r.Logf(format, args...)
	}
}

// Run executes the profile: wait for the server, scrape a baseline,
// unleash the fleet (senders + slow subscribers + heap sampler), wait for
// the pipeline to settle, scrape again, and difference. The context
// cancels the run early; whatever was measured so far still reports.
func (r *Runner) Run(ctx context.Context) (Results, error) {
	var res Results
	hc := r.Client
	if hc == nil {
		hc = &http.Client{Timeout: 30 * time.Second}
	}
	streams, err := BuildWorkload(r.Profile)
	if err != nil {
		return res, err
	}
	var offered int
	for _, s := range streams {
		offered += len(s.Records)
	}
	r.logf("workload: %d devices, %d scheduled deliveries", len(streams), offered)

	before, err := r.awaitServer(ctx, hc)
	if err != nil {
		return res, err
	}

	// Slow subscribers and the heap sampler live on their own context so
	// they stop as soon as measurement ends.
	bgCtx, bgStop := context.WithCancel(ctx)
	defer bgStop()
	var heapMax int64
	var bg sync.WaitGroup
	bg.Add(1)
	go func() {
		defer bg.Done()
		t := time.NewTicker(250 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-bgCtx.Done():
				return
			case <-t.C:
				if s, err := scrapeMetrics(bgCtx, hc, r.Addr); err == nil {
					if h := int64(s["trips_runtime_heap_alloc_bytes"]); h > heapMax {
						heapMax = h
					}
				}
			}
		}
	}()
	subClient := &http.Client{} // no timeout: the stream is held open deliberately
	for i := 0; i < r.Profile.SlowSubscribers; i++ {
		bg.Add(1)
		go func() {
			defer bg.Done()
			if err := slowSubscriber(bgCtx, subClient, r.Addr); err != nil {
				r.logf("slow subscriber: %v", err)
			}
		}()
	}

	start := time.Now()
	statsc := make(chan senderStats, len(streams))
	var senders sync.WaitGroup
	for _, stream := range streams {
		senders.Add(1)
		go func(st DeviceStream) {
			defer senders.Done()
			statsc <- runDevice(ctx, hc, r.Addr, st, r.Profile)
		}(stream)
	}
	senders.Wait()
	close(statsc)
	sendWindow := time.Since(start)
	var total senderStats
	for st := range statsc {
		total.add(st)
	}
	r.logf("senders done: %d records acked in %s (%d requests, %d retries, %d reconnects)",
		total.sent, sendWindow.Round(time.Millisecond), total.requests, total.retries, total.reconnects)

	after := r.settle(ctx, hc, before)
	bgStop()
	bg.Wait()
	// One final heap reading so a run shorter than the sampler period
	// still reports a ceiling.
	if h := int64(after["trips_runtime_heap_alloc_bytes"]); h > heapMax {
		heapMax = h
	}

	delta := Sub(after, before)
	res = Results{
		RecordsSent:         total.sent,
		ElapsedS:            sendWindow.Seconds(),
		FreshnessP50S:       HistogramQuantile(delta, "trips_freshness_seconds", 0.50),
		FreshnessP99S:       HistogramQuantile(delta, "trips_freshness_seconds", 0.99),
		FreshnessCount:      histogramCount(delta, "trips_freshness_seconds"),
		IngestRequests:      total.requests,
		Rejected429:         total.rejected,
		Retries:             total.retries,
		Reconnects:          total.reconnects,
		HTTPErrors:          total.httpErrors,
		LateRecords:         int64(delta["trips_online_late_records_total"]),
		DuplicateRecords:    int64(delta["trips_online_duplicate_records_total"]),
		BackloggedRecords:   int64(delta["trips_online_backlogged_total"]),
		TripletsSealed:      int64(delta["trips_online_triplets_total"]),
		TripsFolded:         int64(delta["trips_analytics_trips_folded_total"]),
		SubscriberEvictions: int64(delta["trips_analytics_subscriber_evictions_total"]),
		HeapMaxBytes:        heapMax,
	}
	if sendWindow > 0 {
		res.RecordsPerS = float64(total.sent) / sendWindow.Seconds()
	}
	if r.Profile.TraceEvery > 0 {
		tv, err := fetchSlowestTrace(ctx, hc, r.Addr)
		if err != nil {
			r.logf("slowest-trace fetch: %v", err)
		} else {
			res.SlowestTrace = tv
			r.logf("slowest kept trace %s: %.1f ms over %d spans (device %s)",
				tv.ID, tv.DurationMs, len(tv.Spans), tv.Device)
		}
	}
	return res, nil
}

// awaitServer polls /metrics until the server answers with a parseable
// exposition (readiness plus the run's baseline scrape in one).
func (r *Runner) awaitServer(ctx context.Context, hc *http.Client) (Sample, error) {
	deadline := time.Now().Add(30 * time.Second)
	for {
		s, err := scrapeMetrics(ctx, hc, r.Addr)
		if err == nil {
			return s, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("loadgen: server at %s never served /metrics: %w", r.Addr, err)
		}
		time.Sleep(200 * time.Millisecond)
	}
}

// settle waits (bounded by SettleTimeout) for the pipeline to drain after
// the last send: the shard backlog at zero and the warehouse trip count
// stable across consecutive polls (every fold runs synchronously behind its
// warehouse append, so a stable store means settled views). It returns the
// most recent scrape — on timeout or cancellation too.
func (r *Runner) settle(ctx context.Context, hc *http.Client, last Sample) Sample {
	timeout := r.Profile.SettleTimeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	deadline := time.Now().Add(timeout)
	prevTrips := -1.0
	for {
		s, err := scrapeMetrics(ctx, hc, r.Addr)
		if err == nil {
			last = s
			trips := s["trips_store_trips_total"]
			if s["trips_online_shard_backlog_records"] == 0 && trips == prevTrips {
				return last
			}
			prevTrips = trips
		}
		if ctx.Err() != nil || time.Now().After(deadline) {
			return last
		}
		time.Sleep(200 * time.Millisecond)
	}
}
