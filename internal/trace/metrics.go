package trace

import (
	"atum/internal/obs"
	"atum/internal/par"
)

// Decode-path telemetry, resolved once into the process-wide registry:
// the decoders have no per-call options struct to thread a registry
// through, and a live view of "how fast is this capture being read
// back" is exactly what the default registry is for. Counters are
// bumped per batch or per segment, never per record, so the zero-
// allocation hot path (batch.go) stays untouched.
var (
	mDecodeSegments    = obs.Default().Counter("atum_decode_segments_total")
	mDecodedRecords    = obs.Default().Counter("atum_decode_records_total")
	mDecodeBytes       = obs.Default().Counter("atum_decode_payload_bytes_total")
	mDecodeSegSecs     = obs.Default().Histogram("atum_decode_segment_seconds", obs.DefSecondsBuckets)
	mDecodeInflateSecs = obs.Default().Histogram("atum_decode_inflate_seconds", obs.DefSecondsBuckets)
)

// init wires the worker pool's occupancy hook to a gauge. This runs
// before any pool can start (package init precedes main and tests), so
// the hook variable is never written concurrently with a pool read.
func init() {
	g := obs.Default().Gauge("atum_par_workers_active")
	par.Occupancy = func(delta int) { g.Add(float64(delta)) }
}
