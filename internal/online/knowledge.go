package online

import (
	"sync"
	"time"

	"trips/internal/complement"
	"trips/internal/dsm"
	"trips/internal/position"
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
	if joinGap <= 0 {
		joinGap = 2 * time.Minute
	}
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

// inferGap runs the MAP gap inference between two emitted triplets under
// the current knowledge (uniform prior until minKnowledge transitions have
// accumulated) and returns the inferred interior triplets.
func (ks *knowledgeStore) inferGap(comp *complement.Complementor, dev position.DeviceID, a, b semantics.Triplet) []semantics.Triplet {
	maxGap := comp.MaxGap
	if maxGap <= 0 {
		maxGap = 3 * time.Minute
	}
	if a.RegionID == "" || b.RegionID == "" || b.From.Sub(a.To) <= maxGap {
		return nil
	}
	c := *comp
	ks.mu.RLock()
	defer ks.mu.RUnlock()
	if ks.know.Observations() >= minKnowledge {
		c.Know = ks.know
	} else {
		c.Know = nil
		c.UniformPrior = true
	}
	tmp := semantics.NewSequence(string(dev))
	tmp.Append(a)
	tmp.Append(b)
	out, inserted := c.Complement(tmp)
	if inserted == 0 {
		return nil
	}
	return out.Triplets[1 : out.Len()-1]
}
