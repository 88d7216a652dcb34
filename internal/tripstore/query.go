package tripstore

import (
	"encoding/base64"
	"fmt"
	"strconv"
	"strings"
	"time"

	"trips/internal/dsm"
	"trips/internal/position"
	"trips/internal/semantics"
)

// QuerySpec selects warehoused trips. Every predicate is optional;
// combined predicates intersect. Results come back in the global (From,
// Device, Seq) order, paginated by Limit + Cursor.
type QuerySpec struct {
	// Device restricts to one device's partition.
	Device position.DeviceID `json:"device,omitempty"`
	// RegionID restricts to trips whose triplet carries this region ID.
	RegionID dsm.RegionID `json:"regionId,omitempty"`
	// Region restricts by semantic tag (e.g. "Nike"); ignored when
	// RegionID is set.
	Region string `json:"region,omitempty"`
	// Event restricts by mobility event label ("stay", "pass-by", ...).
	Event semantics.Event `json:"event,omitempty"`
	// Since/Until select trips whose period overlaps [Since, Until); a
	// zero bound is open on that side.
	Since time.Time `json:"since,omitzero"`
	Until time.Time `json:"until,omitzero"`
	// StartAfter selects trips whose From (start instant) is strictly
	// later — the frontier-bounded replay predicate: a consumer that
	// already folded a device's timeline through some From resumes past
	// it without rescanning the prefix. Unlike Since it bounds the start
	// instant itself (dedupe identity), not period overlap, and it cuts
	// the index span by binary search, so the scan cost is O(log n +
	// matches) regardless of how much history precedes the frontier.
	StartAfter time.Time `json:"startAfter,omitzero"`
	// Inferred filters on the Complementor flag: nil = both, true = only
	// inferred, false = only observed.
	Inferred *bool `json:"inferred,omitempty"`
	// Limit caps the page size; <= 0 returns everything.
	Limit int `json:"limit,omitempty"`
	// Cursor resumes after the last trip of the previous page (Page.Next).
	Cursor string `json:"cursor,omitempty"`
}

// Page is one query result page.
type Page struct {
	Trips []Trip `json:"trips"`
	// Next is the cursor of the following page; empty when the result set
	// is exhausted.
	Next string `json:"next,omitempty"`
	// Scanned counts the index entries examined — the query-cost proxy
	// (it stays near len(Trips) when the planner found a narrow index).
	Scanned int `json:"scanned"`
}

// Query answers a spec from the narrowest applicable index: the device
// partition, else the region posting list, else the global interval index.
// It never scans trips outside the chosen index's candidate span.
func (w *Warehouse) Query(spec QuerySpec) (Page, error) {
	var start time.Time
	if w.metrics != nil {
		//trips:allow wallclock: query latency metric
		start = time.Now()
	}
	page, err := w.query(spec)
	if w.metrics != nil {
		w.metrics.QuerySeconds.ObserveSince(start)
	}
	return page, err
}

func (w *Warehouse) query(spec QuerySpec) (Page, error) {
	var after key
	hasCursor := spec.Cursor != ""
	if hasCursor {
		k, err := decodeCursor(spec.Cursor)
		if err != nil {
			return Page{}, err
		}
		after = k
	}
	if !spec.Since.IsZero() && !spec.Until.IsZero() && !spec.Since.Before(spec.Until) {
		return Page{}, nil
	}

	w.mu.RLock()
	if w.closed {
		w.mu.RUnlock()
		return Page{}, ErrClosed
	}
	p := w.plan(spec)
	if p == nil {
		// Provably empty (unknown device/region) — the hot polling case
		// for devices that haven't sealed a trip yet; never escalate.
		w.mu.RUnlock()
		return Page{}, nil
	}
	if !p.dirty() {
		page := w.collect(p, spec, after, hasCursor)
		w.mu.RUnlock()
		return page, nil
	}
	// The planned index has an unsorted suffix: upgrade to the write
	// lock, restore order, and answer under it — one bounded upgrade,
	// immune to concurrent inserts re-dirtying the index between sort
	// and collect.
	w.mu.RUnlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return Page{}, ErrClosed
	}
	p = w.plan(spec)
	if p == nil {
		return Page{}, nil
	}
	p.sorted()
	return w.collect(p, spec, after, hasCursor), nil
}

// plan picks the narrowest index for the spec; callers hold a lock. Nil
// means the result set is provably empty.
func (w *Warehouse) plan(spec QuerySpec) *posting {
	switch {
	case spec.Device != "":
		return w.parts[spec.Device]
	case spec.RegionID != "":
		return w.byID[string(spec.RegionID)]
	case spec.Region != "":
		return w.byTag[spec.Region]
	default:
		return &w.byTime
	}
}

// collect walks the sorted index span in global order, applies the residual
// predicates, and cuts one page. Callers hold a lock and guarantee the
// posting is sorted.
func (w *Warehouse) collect(p *posting, spec QuerySpec, after key, hasCursor bool) Page {
	lo, hi := p.span(spec.Since, spec.Until, w.maxDur)
	if !spec.StartAfter.IsZero() {
		if s := p.seekFrom(spec.StartAfter); s > lo {
			lo = s
		}
	}
	if hasCursor {
		if s := p.seek(after); s > lo {
			lo = s
		}
	}
	var page Page
	for i := lo; i < hi; i++ {
		t := p.refs[i]
		page.Scanned++
		if !matches(t, spec) {
			continue
		}
		if spec.Limit > 0 && len(page.Trips) == spec.Limit {
			page.Next = encodeCursor(page.Trips[len(page.Trips)-1])
			return page
		}
		page.Trips = append(page.Trips, *t)
	}
	return page
}

// matches applies the predicates the index span did not already guarantee.
func matches(t *Trip, spec QuerySpec) bool {
	if spec.Device != "" && t.Device != spec.Device {
		return false
	}
	if spec.RegionID != "" {
		if t.Triplet.RegionID != spec.RegionID {
			return false
		}
	} else if spec.Region != "" && t.Triplet.Region != spec.Region {
		return false
	}
	if spec.Event != "" && t.Triplet.Event != spec.Event {
		return false
	}
	if spec.Inferred != nil && t.Triplet.Inferred != *spec.Inferred {
		return false
	}
	if !spec.Since.IsZero() || !spec.Until.IsZero() {
		until := spec.Until
		if until.IsZero() {
			until = t.Triplet.From.Add(time.Nanosecond) // open end: From always qualifies
		}
		if !t.Triplet.Overlaps(spec.Since, until) {
			return false
		}
	}
	return true
}

// Cursor encoding: "v1|<From unix-secs>|<From nanos>|<seq>|<device>"
// base64url'd. Seconds and nanoseconds travel separately because
// UnixNano overflows for timestamps far outside the epoch, and ingested
// feeds may carry arbitrary times. The device comes last because DeviceID
// may contain the separator.
const cursorVersion = "v1"

func encodeCursor(t Trip) string {
	raw := fmt.Sprintf("%s|%d|%d|%d|%s", cursorVersion,
		t.Triplet.From.Unix(), t.Triplet.From.Nanosecond(), t.Seq, t.Device)
	return base64.RawURLEncoding.EncodeToString([]byte(raw))
}

func decodeCursor(s string) (key, error) {
	raw, err := base64.RawURLEncoding.DecodeString(s)
	if err != nil {
		return key{}, fmt.Errorf("tripstore: bad cursor: %w", err)
	}
	parts := strings.SplitN(string(raw), "|", 5)
	if len(parts) != 5 || parts[0] != cursorVersion {
		return key{}, fmt.Errorf("tripstore: bad cursor %q", s)
	}
	sec, err := strconv.ParseInt(parts[1], 10, 64)
	if err != nil {
		return key{}, fmt.Errorf("tripstore: bad cursor time: %w", err)
	}
	nsec, err := strconv.ParseInt(parts[2], 10, 64)
	if err != nil || nsec < 0 || nsec > 999_999_999 {
		return key{}, fmt.Errorf("tripstore: bad cursor nanos %q", parts[2])
	}
	seq, err := strconv.Atoi(parts[3])
	if err != nil {
		return key{}, fmt.Errorf("tripstore: bad cursor seq: %w", err)
	}
	return key{time.Unix(sec, nsec).UTC(), position.DeviceID(parts[4]), seq}, nil
}
