package loadgen

import "fmt"

// Check holds a run to the invariants no load run may break, returning one
// message per violation (empty = pass): a run that acknowledged nothing,
// returned a non-429 HTTP error, or never produced a freshness observation
// measured nothing or broke the pipeline, whatever its numbers say.
func Check(res Results) []string {
	var fails []string
	if res.RecordsSent == 0 {
		fails = append(fails, "no records were acknowledged: the run measured nothing")
	}
	if res.HTTPErrors > 0 {
		fails = append(fails, fmt.Sprintf("%d HTTP errors: every non-429 failure is a breach", res.HTTPErrors))
	}
	if res.FreshnessCount == 0 {
		fails = append(fails, "no freshness observations: the ingest→seal→fold pipeline never completed")
	}
	return fails
}
