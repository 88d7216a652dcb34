package online

import (
	"time"

	"trips/internal/obs/trace"
	"trips/internal/position"
	"trips/internal/semantics"
)

// Emission is one finalized triplet leaving the engine. Per device, Seq
// increases by one per emission and triplets arrive in timeline order; no
// ordering holds across devices. Seq restarts at 0 when a device returns
// after idle eviction (a fresh session epoch), so it is not a durable
// per-device identity — key durable state on (Device, Triplet.From), as
// the trip warehouse does.
type Emission struct {
	Device position.DeviceID `json:"device"`
	// Seq is the per-device emission index, counting inferred triplets.
	Seq     int               `json:"seq"`
	Triplet semantics.Triplet `json:"triplet"`
	// Watermark is the device's latest record time when the triplet
	// sealed; Watermark − Triplet.To is the sealing latency in event
	// time.
	Watermark time.Time `json:"watermark"`
	// ArrivedAt is the wall-clock arrival of the oldest record that was
	// pending at the flush that sealed this triplet; zero when that flush
	// had no pending intake (close or idle finalization). time.Since of it
	// at a sink approximates the pipeline's ingest→visible freshness. It
	// is process-local context, not part of the durable record, so it is
	// excluded from the JSON form.
	ArrivedAt time.Time `json:"-"`
	// Trace is the sealing flush's span context when the flush carried a
	// sampled trace; downstream sinks (warehouse append, analytics fold)
	// start their spans under it. Zero — and ignored by sinks — on untraced
	// flushes. Process-local like ArrivedAt, so excluded from JSON.
	Trace trace.Ctx `json:"-"`
}

// Emitter is the engine's output sink. Emit is called from shard
// goroutines, one call at a time per device but concurrently across
// devices; implementations must be safe for concurrent use.
type Emitter interface {
	Emit(Emission)
}

// SessionFinalizer is an optional Emitter extension: when the configured
// emitter (or a tee in its chain) implements it, the engine calls
// FinalizeSession after the idle timeout finalizes and evicts a device's
// session — an explicit "this device is gone" signal, delivered after the
// session's last triplets emitted. at is the To of the device's final
// sealed triplet (event time); sessions that never sealed anything are
// evicted silently. Engine.Close does NOT finalize sessions this way: a
// shutdown seals every session but is no evidence the devices left.
// Like Emit, calls arrive from shard goroutines concurrently across
// devices.
type SessionFinalizer interface {
	FinalizeSession(dev position.DeviceID, at time.Time)
}

// EmitterFunc adapts a function to the Emitter interface (the callback
// sink).
type EmitterFunc func(Emission)

// Emit implements Emitter.
func (f EmitterFunc) Emit(e Emission) { f(e) }
