// Command trips-load is the closed-loop load harness: it drives a running
// trips-server over HTTP with simulated shoppers under production-shaped
// stress (bursty batches, reconnect storms, bounded out-of-order and
// duplicate delivery, slow SSE subscribers) and scrapes /metrics for what
// the run did to the system — ingest→seal→analytics-visible freshness,
// acknowledged records/s, 429 push-back, heap ceiling. It is the soak for
// the HTTP, admission, reconnect and SSE paths; performance numbers come
// from bench/.
//
// Every run exits non-zero when it acknowledged nothing, saw a non-429 HTTP
// error, or never observed a sealed trip become visible (loadgen.Check).
//
// With -trace-check it forces an end-to-end trace on every 4th batch per
// sender (X-Trace-Id), records the slowest kept trace's span tree as the
// report's slowest_trace block, and exits non-zero if the server kept
// none — proof the ingest→fold lineage held together under load.
//
// Usage:
//
//	trips-server -demo &                       # the system under test
//	trips-load                                 # smoke run
//	trips-load -profile standard -devices 48   # heavier, overridden fleet
//	trips-load -trace-check -out /tmp/run.json # also write the results as JSON
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"trips/internal/loadgen"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("trips-load: ")
	var (
		addr     = flag.String("addr", "http://127.0.0.1:8765", "trips-server base URL")
		profile  = flag.String("profile", "smoke", "load profile: smoke|standard")
		devices  = flag.Int("devices", 0, "override the profile's device count")
		visits   = flag.Int("visits", 0, "override the profile's itinerary length")
		seed     = flag.Int64("seed", 0, "override the profile's workload seed")
		slowSubs = flag.Int("slow-subscribers", -1, "override the profile's slow SSE subscriber count")
		settle   = flag.Duration("settle", 0, "override the profile's post-send settle timeout")
		timeout  = flag.Duration("timeout", 5*time.Minute, "abort the run after this long")
		out      = flag.String("out", "", "write the run's results as JSON to this path (empty = don't)")
		traceChk = flag.Bool("trace-check", false,
			"force a trace on every 4th batch, record the slowest kept trace as slowest_trace, and fail if the server kept none")
	)
	flag.Parse()

	var p loadgen.Profile
	switch *profile {
	case "smoke":
		p = loadgen.Smoke()
	case "standard":
		p = loadgen.Standard()
	default:
		log.Fatalf("unknown profile %q (smoke|standard)", *profile)
	}
	if *devices > 0 {
		p.Devices = *devices
	}
	if *visits > 0 {
		p.Visits = *visits
	}
	if *seed != 0 {
		p.Seed = *seed
	}
	if *slowSubs >= 0 {
		p.SlowSubscribers = *slowSubs
	}
	if *settle > 0 {
		p.SettleTimeout = *settle
	}
	if *traceChk && p.TraceEvery == 0 {
		p.TraceEvery = 4
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, *timeout)
	defer cancel()

	runner := &loadgen.Runner{Addr: *addr, Profile: p, Logf: log.Printf}
	res, err := runner.Run(ctx)
	if err != nil {
		log.Fatal(err)
	}
	if *out != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
	}

	fmt.Printf("profile %-10s %8d records  %8.0f records/s  freshness p50 %.2fs p99 %.2fs (%d sealed paths)\n",
		p.Name, res.RecordsSent, res.RecordsPerS, res.FreshnessP50S, res.FreshnessP99S, res.FreshnessCount)
	fmt.Printf("requests %d  429s %d  retries %d  reconnects %d  http-errors %d\n",
		res.IngestRequests, res.Rejected429, res.Retries, res.Reconnects, res.HTTPErrors)
	fmt.Printf("late %d  duplicates %d  backlogged %d  sealed %d  folded %d  evictions %d  heap-max %.1f MB\n",
		res.LateRecords, res.DuplicateRecords, res.BackloggedRecords, res.TripletsSealed,
		res.TripsFolded, res.SubscriberEvictions, float64(res.HeapMaxBytes)/(1<<20))

	if *traceChk {
		if res.SlowestTrace == nil {
			log.Fatal("trace-check: the server kept no end-to-end traces")
		}
		st := res.SlowestTrace
		fmt.Printf("slowest trace %s: %.1f ms, %d spans, complete=%v, device %s\n",
			st.ID, st.DurationMs, len(st.Spans), st.Complete, st.Device)
	}

	if fails := loadgen.Check(res); len(fails) != 0 {
		for _, f := range fails {
			log.Printf("FAIL: %s", f)
		}
		os.Exit(1)
	}
}
