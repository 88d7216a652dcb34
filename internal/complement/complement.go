// Package complement implements the Complementing layer of the TRIPS
// three-layer translation framework (paper Fig. 3) — the Mobility Semantics
// Complementor module.
//
// "The Complementing layer recovers the missing mobility semantics between
// two consecutive yet temporally far apart mobility semantics to make the
// output sequence complete. A knowledge construction aggregates the mobility
// semantics already annotated to build the prior mobility knowledge that
// captures the transition probabilities between semantic regions. Next, by a
// maximum a posteriori estimation, a mobility semantics inference utilizes
// the mobility knowledge to infer the most-likely mobility semantics between
// two semantic regions involved in the intermediate result."
//
// Knowledge is a first-order Markov model over semantic regions, restricted
// to the DSM's region-adjacency graph and Laplace-smoothed so unseen but
// topologically possible transitions stay reachable. Inference is a Viterbi
// -style shortest path under -log transition probability.
package complement

import (
	"container/heap"
	"math"
	"time"

	"trips/internal/dsm"
	"trips/internal/semantics"
)

// Knowledge is the prior mobility knowledge: region transition statistics
// aggregated from already-annotated sequences.
type Knowledge struct {
	model *dsm.Model
	// counts[a][b] is the number of observed direct transitions a→b.
	counts map[dsm.RegionID]map[dsm.RegionID]float64
	// totals[a] is the summed outgoing count of a.
	totals map[dsm.RegionID]float64
	// observations is the total number of transitions aggregated.
	observations int
}

// BuildKnowledge aggregates transition statistics from the observed (non-
// inferred) triplets of the given semantics sequences. Consecutive triplets
// count as a transition when both carry a region ID and the hand-off gap is
// at most joinGap (transitions across long dropouts are exactly what we must
// NOT learn as direct). It is Observe folded over each sequence's
// region-carrying observed triplets.
func BuildKnowledge(m *dsm.Model, seqs []*semantics.Sequence, joinGap time.Duration) *Knowledge {
	k := NewKnowledge(m)
	for _, s := range seqs {
		var prev *semantics.Triplet
		for i := range s.Triplets {
			tr := &s.Triplets[i]
			if tr.Inferred || tr.RegionID == "" {
				continue
			}
			if prev != nil {
				k.Observe(*prev, *tr, joinGap)
			}
			prev = tr
		}
	}
	return k
}

// NewKnowledge returns an empty knowledge store for incremental aggregation.
// The online engine grows it one transition at a time as triplets are
// emitted, instead of the batch BuildKnowledge pass.
func NewKnowledge(m *dsm.Model) *Knowledge {
	return &Knowledge{
		model:  m,
		counts: make(map[dsm.RegionID]map[dsm.RegionID]float64),
		totals: make(map[dsm.RegionID]float64),
	}
}

// Observe records the transition between two consecutive observed triplets
// when both carry a region and the hand-off gap is at most joinGap (default
// 2 minutes) — the one admission rule of knowledge aggregation. Callers own
// any synchronization; Knowledge is not safe for concurrent mutation.
func (k *Knowledge) Observe(prev, next semantics.Triplet, joinGap time.Duration) {
	if joinGap <= 0 {
		joinGap = 2 * time.Minute
	}
	if prev.Inferred || next.Inferred || prev.RegionID == "" || next.RegionID == "" {
		return
	}
	if next.From.Sub(prev.To) <= joinGap && prev.RegionID != next.RegionID {
		k.add(prev.RegionID, next.RegionID)
	}
}

func (k *Knowledge) add(a, b dsm.RegionID) {
	row, ok := k.counts[a]
	if !ok {
		row = make(map[dsm.RegionID]float64)
		k.counts[a] = row
	}
	row[b]++
	k.totals[a]++
	k.observations++
}

// Observations returns the number of aggregated transitions.
func (k *Knowledge) Observations() int { return k.observations }

// TransitionProb returns the Laplace-smoothed probability of moving directly
// from region a to region b. Transitions outside the DSM region adjacency
// have probability zero: mobility knowledge cannot overrule walls.
func (k *Knowledge) TransitionProb(a, b dsm.RegionID) float64 {
	neighbors := k.model.AdjacentRegions(a)
	if len(neighbors) == 0 {
		return 0
	}
	adjacent := false
	for _, n := range neighbors {
		if n == b {
			adjacent = true
			break
		}
	}
	if !adjacent {
		return 0
	}
	// Laplace smoothing with alpha=1 over the neighbor set.
	alpha := 1.0
	num := alpha
	if row, ok := k.counts[a]; ok {
		num += row[b]
	}
	return num / (k.totals[a] + alpha*float64(len(neighbors)))
}

// Complementor fills the gaps of annotated semantics sequences.
type Complementor struct {
	Model *dsm.Model
	Know  *Knowledge

	// MaxGap is the discontinuity threshold: gaps longer than this get
	// complemented. Default 3 minutes.
	MaxGap time.Duration

	// MaxHops bounds the inferred path length between the two regions
	// (default 8), keeping inference local.
	MaxHops int

	// UniformPrior ignores the learned counts and uses a uniform
	// distribution over region neighbors — the ablation showing what the
	// mobility knowledge buys (E4c).
	UniformPrior bool
}

// NewComplementor returns a complementor with default thresholds.
func NewComplementor(m *dsm.Model, k *Knowledge) *Complementor {
	return &Complementor{Model: m, Know: k, MaxGap: 3 * time.Minute, MaxHops: 8}
}

// Complement returns a copy of s with inferred triplets inserted into every
// qualifying gap, plus the number of triplets inserted.
func (c *Complementor) Complement(s *semantics.Sequence) (*semantics.Sequence, int) {
	out := semantics.NewSequence(s.Device)
	inserted := 0
	for i, tr := range s.Triplets {
		if i > 0 {
			for _, inf := range c.Fill(s.Triplets[i-1], tr) {
				out.Append(inf)
				inserted++
			}
		}
		out.Append(tr)
	}
	return out, inserted
}

// Fill returns the inferred triplets for the gap between consecutive
// triplets a and b. A gap qualifies when both carry a region and it is
// longer than MaxGap (default 3 minutes); its triplets are then the interior
// regions of the MAP path, with the gap time split evenly across them.
// Nothing follows a zero-length a (a one-record triplet): the first fill
// would start at a.To, which is a.From, and a device's trips are keyed by
// (device, From), so that fill would repeat a's key.
func (c *Complementor) Fill(a, b semantics.Triplet) []semantics.Triplet {
	maxGap := c.MaxGap
	if maxGap <= 0 {
		maxGap = 3 * time.Minute
	}
	if a.RegionID == "" || b.RegionID == "" || a.To.Equal(a.From) || b.From.Sub(a.To) <= maxGap {
		return nil
	}
	path, prob := c.mapPath(a.RegionID, b.RegionID)
	if len(path) <= 2 {
		return nil // adjacent or unreachable: nothing to insert
	}
	interior := path[1 : len(path)-1]
	gap := b.From.Sub(a.To)
	share := gap / time.Duration(len(interior))
	out := make([]semantics.Triplet, 0, len(interior))
	for i, rid := range interior {
		reg := c.Model.Region(rid)
		if reg == nil {
			continue
		}
		from := a.To.Add(time.Duration(i) * share)
		to := from.Add(share)
		out = append(out, semantics.Triplet{
			Event:      semantics.EventPassBy,
			Region:     reg.Tag,
			RegionID:   rid,
			From:       from,
			To:         to,
			Inferred:   true,
			FirstIdx:   -1,
			LastIdx:    -1,
			Display:    reg.Center(),
			Floor:      reg.Floor,
			Confidence: prob,
		})
	}
	return out
}

// mapPath returns the maximum-a-posteriori region path from a to b over the
// adjacency graph (inclusive of endpoints) and the geometric-mean step
// probability as a confidence proxy. Shortest path under -log P with a hop
// bound.
func (c *Complementor) mapPath(a, b dsm.RegionID) ([]dsm.RegionID, float64) {
	if a == b {
		return []dsm.RegionID{a}, 1
	}
	maxHops := c.MaxHops
	if maxHops <= 0 {
		maxHops = 8
	}
	dist := map[state]float64{}
	prev := map[state]state{}
	pq := &stateHeap{}
	start := state{a, 0}
	dist[start] = 0
	heap.Push(pq, stateItem{start, 0})
	var goal state
	found := false
	for pq.Len() > 0 {
		it := heap.Pop(pq).(stateItem)
		if it.cost > dist[it.s]+1e-12 {
			continue
		}
		if it.s.region == b {
			goal, found = it.s, true
			break
		}
		if it.s.hops >= maxHops {
			continue
		}
		for _, n := range c.Model.AdjacentRegions(it.s.region) {
			p := c.stepProb(it.s.region, n)
			if p <= 0 {
				continue
			}
			ns := state{n, it.s.hops + 1}
			nc := it.cost - math.Log(p)
			if d, ok := dist[ns]; !ok || nc < d {
				dist[ns] = nc
				prev[ns] = it.s
				heap.Push(pq, stateItem{ns, nc})
			}
		}
	}
	if !found {
		return nil, 0
	}
	var rev []dsm.RegionID
	for s := goal; ; {
		rev = append(rev, s.region)
		p, ok := prev[s]
		if !ok {
			break
		}
		s = p
	}
	path := make([]dsm.RegionID, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		path = append(path, rev[i])
	}
	steps := float64(len(path) - 1)
	conf := math.Exp(-dist[goal] / steps) // geometric mean step probability
	return path, conf
}

// stepProb is the transition probability under the configured prior.
func (c *Complementor) stepProb(a, b dsm.RegionID) float64 {
	if c.UniformPrior || c.Know == nil {
		n := len(c.Model.AdjacentRegions(a))
		if n == 0 {
			return 0
		}
		adjacent := false
		for _, x := range c.Model.AdjacentRegions(a) {
			if x == b {
				adjacent = true
				break
			}
		}
		if !adjacent {
			return 0
		}
		return 1 / float64(n)
	}
	return c.Know.TransitionProb(a, b)
}

// state is a Viterbi search state: a region reached in a number of hops.
type state struct {
	region dsm.RegionID
	hops   int
}

type stateItem struct {
	s    state
	cost float64
}

type stateHeap []stateItem

func (h stateHeap) Len() int            { return len(h) }
func (h stateHeap) Less(i, j int) bool  { return h[i].cost < h[j].cost }
func (h stateHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *stateHeap) Push(x interface{}) { *h = append(*h, x.(stateItem)) }
func (h *stateHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}
