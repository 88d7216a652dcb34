package tripstore

import "trips/internal/obs"

// Metrics are the warehouse's optional latency instruments. A nil *Metrics
// in Options disables them; individual nil histograms are safe too (a nil
// histogram discards observations).
type Metrics struct {
	// SegmentWriteSeconds times each batched segment write (marshal, temp
	// file, rename; nothing is synced) — what one full ingest batch pays.
	SegmentWriteSeconds *obs.Histogram
	// SnapshotWriteSeconds times full-state snapshot writes (dump, rename,
	// and covered-segment truncation; nothing is synced).
	SnapshotWriteSeconds *obs.Histogram
	// QuerySeconds times Query end to end, including any index re-sort a
	// dirty plan forces under the write lock.
	QuerySeconds *obs.Histogram
}

// NewMetrics registers the warehouse histograms on r under the
// trips_store_* names.
func NewMetrics(r *obs.Registry) *Metrics {
	return &Metrics{
		SegmentWriteSeconds: r.Histogram("trips_store_segment_write_seconds",
			"Segment-log batch write latency: marshal, temp file and rename (no sync).", nil),
		SnapshotWriteSeconds: r.Histogram("trips_store_snapshot_write_seconds",
			"Full-state snapshot write latency: dump, rename and segment truncation (no sync).", nil),
		QuerySeconds: r.Histogram("trips_store_query_seconds",
			"Warehouse query latency, index re-sorts included.", nil),
	}
}
