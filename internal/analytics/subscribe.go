package analytics

import (
	"fmt"
	"sync"
	"time"

	"trips/internal/dsm"
	"trips/internal/obs/trace"
	"trips/internal/position"
	"trips/internal/semantics"
)

// Delta is one view update pushed to live subscribers: the triplet that was
// folded plus the occupancy it produced — enough for a dashboard to update
// without re-querying.
type Delta struct {
	Device   position.DeviceID `json:"device"`
	Event    semantics.Event   `json:"event"`
	Region   string            `json:"region,omitempty"`
	RegionID dsm.RegionID      `json:"regionId,omitempty"`
	// PrevRegionID is the region the device left ("" when it was nowhere).
	PrevRegionID dsm.RegionID `json:"prevRegionId,omitempty"`
	From         time.Time    `json:"from"`
	To           time.Time    `json:"to"`
	Inferred     bool         `json:"inferred,omitempty"`
	// Occupancy is the entered region's device count after this update,
	// PrevOccupancy the left region's: the region-wide counts, read under
	// the same lock as the fold, so they agree with what Engine.Occupancy
	// reported at that instant.
	Occupancy     int `json:"occupancy"`
	PrevOccupancy int `json:"prevOccupancy,omitempty"`
	// Trace is the fold span's context when the fold carried a sampled
	// trace; SSE delivery starts its span under it. Process-local, excluded
	// from the wire form.
	Trace trace.Ctx `json:"-"`
}

// String renders the delta the way the paper prints triplets.
func (d Delta) String() string {
	return fmt.Sprintf("%s: (%s, %s, %s-%s) occ=%d",
		d.Device, d.Event, d.Region,
		d.From.Format("3:04:05"), d.To.Format("3:04:05pm"), d.Occupancy)
}

// matches reports whether the delta touches any of the subscribed regions.
func (d Delta) matches(regions map[dsm.RegionID]bool) bool {
	if len(regions) == 0 {
		return true
	}
	return (d.RegionID != "" && regions[d.RegionID]) ||
		(d.PrevRegionID != "" && regions[d.PrevRegionID])
}

// Hub fans view deltas out to many concurrent subscribers. Each subscriber
// owns a buffered channel; publishing never blocks — a subscriber whose
// buffer is full is evicted (its channel closes), because a consumer that
// cannot keep up with the view stream would otherwise stall every ingest.
type Hub struct {
	mu      sync.RWMutex
	subs    map[*Subscription]bool
	evicted int64
}

// subscriberBuffer is the per-subscriber delta channel depth before a slow
// consumer is evicted.
const subscriberBuffer = 64

func newHub() *Hub {
	return &Hub{subs: make(map[*Subscription]bool)}
}

// Subscription is one live subscriber. Receive deltas from C; the channel
// closes when the subscriber is evicted as a slow consumer. Close detaches
// (idempotent, safe concurrently with eviction).
type Subscription struct {
	hub     *Hub
	regions map[dsm.RegionID]bool
	ch      chan Delta
	once    sync.Once
	// evicted is set under the hub write lock before the channel closes.
	evicted bool
}

// C returns the delta channel. It closes on eviction or Close.
func (s *Subscription) C() <-chan Delta { return s.ch }

// Evicted reports whether the hub dropped this subscriber for not keeping
// up (meaningful once C is closed).
//
//trips:api the server's SSE test observes eviction through it
func (s *Subscription) Evicted() bool {
	s.hub.mu.RLock()
	defer s.hub.mu.RUnlock()
	return s.evicted
}

// Close detaches the subscription and closes its channel.
func (s *Subscription) Close() {
	s.hub.mu.Lock()
	s.detachLocked()
	s.hub.mu.Unlock()
}

// detachLocked removes the subscription and closes its channel exactly
// once; callers hold the hub write lock (which excludes publishers, so no
// send can race the close).
func (s *Subscription) detachLocked() {
	delete(s.hub.subs, s)
	s.once.Do(func() { close(s.ch) })
}

// subscribe attaches a subscriber filtered to the given regions (empty =
// every region).
func (h *Hub) subscribe(regions []dsm.RegionID) *Subscription {
	s := &Subscription{hub: h, ch: make(chan Delta, subscriberBuffer)}
	if len(regions) > 0 {
		s.regions = make(map[dsm.RegionID]bool, len(regions))
		for _, r := range regions {
			s.regions[r] = true
		}
	}
	h.mu.Lock()
	h.subs[s] = true
	h.mu.Unlock()
	return s
}

// publish delivers a delta to every matching subscriber without blocking,
// then evicts the subscribers whose buffers were full.
func (h *Hub) publish(d Delta) {
	h.mu.RLock()
	if len(h.subs) == 0 {
		h.mu.RUnlock()
		return
	}
	var full []*Subscription
	//trips:commutative delivery to independent per-subscriber channels; inter-subscriber order is unobservable
	for s := range h.subs {
		if !d.matches(s.regions) {
			continue
		}
		select {
		case s.ch <- d:
		default:
			full = append(full, s)
		}
	}
	h.mu.RUnlock()
	if full == nil {
		return
	}
	h.mu.Lock()
	for _, s := range full {
		if h.subs[s] {
			s.evicted = true
			h.evicted++
			s.detachLocked()
		}
	}
	h.mu.Unlock()
}

// stats returns the live subscriber count and the lifetime eviction count.
func (h *Hub) stats() (subscribers int, evicted int64) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return len(h.subs), h.evicted
}
