package loadgen

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"time"

	"trips/internal/obs/trace"
)

// syntheticTraceID derives a 32-hex-digit trace ID from the device, batch
// ordinal, and workload seed, so re-runs of the same profile force the same
// trace identities — two runs' reports name the same traces.
func syntheticTraceID(dev string, batch int, seed int64) string {
	h := fnv.New128a()
	fmt.Fprintf(h, "%s#%d#%d", dev, batch, seed)
	sum := h.Sum(make([]byte, 0, 16))
	sum[0] |= 1 // never the zero ID, which the server would refuse to force
	return hex.EncodeToString(sum)
}

// fetchSlowestTrace pulls the server's kept-trace list and returns the
// slowest trace's full span tree. Right after the last send the run's
// traces may still be lingering toward finalization in the tracer's
// pending set, so an empty list polls briefly (past the tracer's default
// 5s linger window) before giving up.
func fetchSlowestTrace(ctx context.Context, hc *http.Client, addr string) (*trace.TraceView, error) {
	deadline := time.Now().Add(8 * time.Second)
	for {
		list, err := fetchTraceList(ctx, hc, addr)
		if err == nil && len(list) > 0 {
			slowest := list[0]
			for _, tv := range list[1:] {
				if tv.DurationMs > slowest.DurationMs {
					slowest = tv
				}
			}
			return fetchTrace(ctx, hc, addr, slowest.ID)
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if time.Now().After(deadline) {
			if err != nil {
				return nil, err
			}
			return nil, fmt.Errorf("loadgen: %s/debug/traces kept no traces", addr)
		}
		if !sleepCtx(ctx, 250*time.Millisecond) {
			return nil, ctx.Err()
		}
	}
}

func fetchTraceList(ctx context.Context, hc *http.Client, addr string) ([]trace.TraceView, error) {
	var body struct {
		Traces []trace.TraceView `json:"traces"`
	}
	if err := getJSON(ctx, hc, addr+"/debug/traces?limit=1000", &body); err != nil {
		return nil, err
	}
	return body.Traces, nil
}

func fetchTrace(ctx context.Context, hc *http.Client, addr, id string) (*trace.TraceView, error) {
	var tv trace.TraceView
	if err := getJSON(ctx, hc, addr+"/debug/traces/"+id, &tv); err != nil {
		return nil, err
	}
	return &tv, nil
}

func getJSON(ctx context.Context, hc *http.Client, url string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("loadgen: GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
