package online

import "sync/atomic"

// engineStats are the engine's lifetime counters, updated from shard
// goroutines.
type engineStats struct {
	Records            atomic.Int64
	Late               atomic.Int64
	Duplicates         atomic.Int64
	Backlogged         atomic.Int64
	Triplets           atomic.Int64
	Inferred           atomic.Int64
	Flushes            atomic.Int64
	IncrementalFlushes atomic.Int64
	EvidenceFlushes    atomic.Int64
	SealingFlushes     atomic.Int64
	Trims              atomic.Int64
	ForcedTrims        atomic.Int64
	ForcedSeals        atomic.Int64
	IdleFinalized      atomic.Int64
	Sessions           atomic.Int64
}

// Stats is a point-in-time snapshot of the engine's counters and per-shard
// lag.
type Stats struct {
	// RecordsIn counts admitted records; Late counts records dropped for
	// arriving behind the seal frontier. Duplicates counts redelivered
	// records (same device, same instant) collapsed to exactly-once.
	// Backlogged counts TryIngest rejections on a full shard inbox — the
	// records the server's admission control turned into 429s.
	RecordsIn  int64 `json:"recordsIn"`
	Late       int64 `json:"late"`
	Duplicates int64 `json:"duplicates"`
	Backlogged int64 `json:"backlogged"`
	// TripletsOut counts every emission; Inferred the complemented subset.
	TripletsOut int64 `json:"tripletsOut"`
	Inferred    int64 `json:"inferred"`
	// Flushes, Trims, ForcedTrims, IdleFinalized count session
	// maintenance events. IncrementalFlushes counts the recomputes that
	// reused a stable cleaned prefix instead of re-translating the whole
	// tail. ForcedSeals counts MaxTail horizon seals of sessions that
	// never sealed naturally (stationary devices).
	Flushes            int64 `json:"flushes"`
	IncrementalFlushes int64 `json:"incrementalFlushes"`
	// EvidenceFlushes counts the flushes a record started by reaching its
	// session's seal point before FlushEvery did; SealingFlushes counts
	// the flushes that emitted anything, so SealingFlushes/Flushes is the
	// share of flush work that released output.
	EvidenceFlushes int64 `json:"evidenceFlushes"`
	SealingFlushes  int64 `json:"sealingFlushes"`
	Trims           int64 `json:"trims"`
	ForcedTrims     int64 `json:"forcedTrims"`
	ForcedSeals     int64 `json:"forcedSeals"`
	IdleFinalized   int64 `json:"idleFinalized"`
	// Sessions counts sessions opened. A device that returns after an idle
	// eviction opens a new one, so this is not a count of distinct devices.
	Sessions int64 `json:"sessions"`
	// OpenSessions is the sessions open now: opened minus idle-evicted minus
	// closed. TailRecords is the records held in their tails. A session
	// keeps its tail and per-record caches, while flush scratch belongs to
	// the shard, so the engine's heap is about TailRecords times the
	// per-record budget TestOpenSessionHeapBudget holds.
	OpenSessions int64 `json:"openSessions"`
	TailRecords  int64 `json:"tailRecords"`
	// KnowledgeObservations is the size of the shared mobility knowledge.
	KnowledgeObservations int `json:"knowledgeObservations"`
	// ShardDepth is the current inbox backlog per shard — the lag proxy:
	// a persistently deep shard is falling behind its feed.
	ShardDepth []int `json:"shardDepth"`
}

// Stats snapshots the engine counters. Safe to call concurrently with
// ingestion.
func (e *Engine) Stats() Stats {
	st := Stats{
		RecordsIn:             e.stats.Records.Load(),
		Late:                  e.stats.Late.Load(),
		Duplicates:            e.stats.Duplicates.Load(),
		Backlogged:            e.stats.Backlogged.Load(),
		TripletsOut:           e.stats.Triplets.Load(),
		Inferred:              e.stats.Inferred.Load(),
		Flushes:               e.stats.Flushes.Load(),
		IncrementalFlushes:    e.stats.IncrementalFlushes.Load(),
		EvidenceFlushes:       e.stats.EvidenceFlushes.Load(),
		SealingFlushes:        e.stats.SealingFlushes.Load(),
		Trims:                 e.stats.Trims.Load(),
		ForcedTrims:           e.stats.ForcedTrims.Load(),
		ForcedSeals:           e.stats.ForcedSeals.Load(),
		IdleFinalized:         e.stats.IdleFinalized.Load(),
		Sessions:              e.stats.Sessions.Load(),
		KnowledgeObservations: e.know.observations(),
		ShardDepth:            make([]int, len(e.shards)),
	}
	for i, sh := range e.shards {
		st.ShardDepth[i] = len(sh.ch)
		st.OpenSessions += sh.open.Load()
		st.TailRecords += sh.tail.Load()
	}
	return st
}
