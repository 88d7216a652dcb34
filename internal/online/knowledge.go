package online

import (
	"sync"
	"time"

	"trips/internal/complement"
	"trips/internal/dsm"
	"trips/internal/semantics"
)

// minKnowledge is the number of aggregated transitions required before gap
// inference switches from the uniform topology prior to the learned
// knowledge.
const minKnowledge = 8

// knowledgeStore is the engine-wide mobility knowledge, grown incrementally
// from emitted triplets. All shards feed it, so access is lock-guarded —
// the online substitute for the batch Translator's phase-two
// BuildKnowledge pass.
type knowledgeStore struct {
	mu      sync.RWMutex
	know    *complement.Knowledge
	joinGap time.Duration
}

func newKnowledgeStore(m *dsm.Model, joinGap time.Duration) *knowledgeStore {
	return &knowledgeStore{know: complement.NewKnowledge(m), joinGap: joinGap}
}

// observe aggregates the transition between two consecutively emitted
// triplets of one device.
func (ks *knowledgeStore) observe(prev, next semantics.Triplet) {
	ks.mu.Lock()
	ks.know.Observe(prev, next, ks.joinGap)
	ks.mu.Unlock()
}

// observations returns the number of aggregated transitions.
func (ks *knowledgeStore) observations() int {
	ks.mu.RLock()
	defer ks.mu.RUnlock()
	return ks.know.Observations()
}

// inferGap fills the gap between two emitted triplets with the
// complementor's per-gap step under the current knowledge — none, so the
// prior is uniform, until minKnowledge transitions have accumulated.
func (ks *knowledgeStore) inferGap(comp *complement.Complementor, a, b semantics.Triplet) []semantics.Triplet {
	c := *comp
	c.Know = nil
	ks.mu.RLock()
	defer ks.mu.RUnlock()
	if ks.know.Observations() >= minKnowledge {
		c.Know = ks.know
	}
	return c.Fill(a, b)
}
