// Package loadgen is the closed-loop load harness behind cmd/trips-load:
// it drives a real trips-server over HTTP with simulated mall shoppers
// under production-shaped stress — bursty batched arrivals, reconnect
// storms that redeliver unacked batches, bounded out-of-order and
// duplicate delivery, and deliberately slow SSE subscribers — while
// scraping GET /metrics for the system-level numbers that matter:
// ingest→seal→analytics-visible freshness quantiles, sustained records/s,
// push-back (429) rates, and the heap ceiling.
//
// The harness is closed-loop: every sender holds at most one request in
// flight and honors 429 + Retry-After before re-sending, so offered load
// adapts to what the server admits instead of stampeding an unbounded
// queue. Check (gate.go) holds every run to the invariants no run may
// break; performance numbers come from bench/, not from here.
package loadgen

import "time"

// Profile shapes one load run. The zero value is not useful; start from
// Smoke or Standard and override.
type Profile struct {
	// Name labels the profile in reports ("smoke", "standard", ...).
	Name string `json:"name"`
	// Devices is the number of concurrent simulated shoppers, each with
	// its own closed-loop sender connection.
	Devices int `json:"devices"`
	// Visits is the itinerary length per device (dwells between walks);
	// it controls per-device record volume.
	Visits int `json:"visits"`
	// BatchSize is the records per POST /ingest request.
	BatchSize int `json:"batch_size"`
	// ShuffleWindow bounds out-of-order delivery: records may be displaced
	// up to ShuffleWindow-1 positions within their device stream (0 or 1
	// disables shuffling).
	ShuffleWindow int `json:"shuffle_window"`
	// DuplicateEvery redelivers every Nth record a few positions later,
	// the at-least-once shape of a sender retrying a dropped ack
	// (0 disables).
	DuplicateEvery int `json:"duplicate_every"`
	// ReconnectEvery makes a sender drop its connection and re-send its
	// previous batch every Nth batch — a reconnect storm across the fleet
	// (0 disables).
	ReconnectEvery int `json:"reconnect_every"`
	// SlowSubscribers opens this many /analytics/subscribe streams that
	// never read, pressuring the delta hub's eviction path.
	SlowSubscribers int `json:"slow_subscribers"`
	// TraceEvery forces an end-to-end trace on every Nth batch per sender
	// by attaching a deterministic synthetic X-Trace-Id (0 disables).
	// Forced traces are pinned in the server's trace ring, so the run
	// leaves an inspectable lineage sample behind — the slowest one lands
	// in the report as slowest_trace.
	TraceEvery int `json:"trace_every"`
	// Seed makes the workload deterministic.
	Seed int64 `json:"seed"`
	// SettleTimeout caps how long the run waits after the last send for
	// in-flight records to seal and fold before the final scrape.
	SettleTimeout time.Duration `json:"settle_timeout_ns"`
}

// Smoke is the CI profile: small enough to finish well under a minute on
// one core, large enough to exercise every stress shape at least once.
func Smoke() Profile {
	return Profile{
		Name:            "smoke",
		Devices:         6,
		Visits:          3,
		BatchSize:       32,
		ShuffleWindow:   8,
		DuplicateEvery:  9,
		ReconnectEvery:  5,
		SlowSubscribers: 2,
		Seed:            7,
		SettleTimeout:   10 * time.Second,
	}
}

// Standard is the local soak profile: 4x the fleet, longer itineraries.
func Standard() Profile {
	return Profile{
		Name:            "standard",
		Devices:         24,
		Visits:          5,
		BatchSize:       64,
		ShuffleWindow:   8,
		DuplicateEvery:  9,
		ReconnectEvery:  5,
		SlowSubscribers: 4,
		Seed:            7,
		SettleTimeout:   20 * time.Second,
	}
}
