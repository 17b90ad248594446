// Package api defines the versioned JSON request/response types of the
// atum-serve daemon — the one public surface the HTTP handlers, the Go
// client (serve.Client) and the CLIs' -remote modes all share, so there
// is exactly one dialect of "create a capture session", "describe a
// stored trace" or "run this sweep" in the repository.
//
// Versioning policy (DESIGN §11): every route is mounted under the
// Version prefix. Within a version the types only grow — new optional
// fields with omitempty, never renamed or re-typed fields — so old
// clients keep working against new daemons; a breaking change mints
// /v2 alongside /v1. The simulator configuration and result structs
// (cache.Config, cache.Result, tlbsim.Config, …) are embedded directly
// rather than mirrored: their exported fields are part of the v1 wire
// contract and are frozen by the same rule, which is also what makes
// remote analyses byte-identical to local ones — both sides marshal the
// very same structs.
package api

import (
	"atum/internal/cache"
	"atum/internal/findings"
	"atum/internal/stackdist"
	"atum/internal/tlbsim"
	"atum/internal/trace"
)

// Version is the wire-protocol version and the URL prefix every route
// lives under (e.g. /v1/tenants/alpha/sessions).
const Version = "v1"

// Analysis kinds accepted by AnalysisRequest.Kind.
const (
	KindCaches      = "caches"
	KindHierarchies = "hierarchies"
	KindTBs         = "tbs"
	KindStackdist   = "stackdist"
	KindSummary     = "summary"
)

// CreateSessionRequest starts a named capture session: the daemon boots
// a fresh simulated machine with the workload mix, installs the ATUM
// patches with a kernel spill service behind them, and streams segments
// into a stored trace (readable — and live-streamable — while the
// capture runs).
type CreateSessionRequest struct {
	// Name identifies the session within the tenant; it is also the
	// stored trace's name unless StoreAs overrides it.
	Name    string `json:"name"`
	StoreAs string `json:"store_as,omitempty"`

	// Workloads is the mix to boot; empty means the standard four-way
	// mix the paper's multiprogramming tables use.
	Workloads []string `json:"workloads,omitempty"`

	// SegmentBytes bounds the reserved capture buffer per segment; zero
	// picks the server's default. Watermark in (0, 1], kept from the
	// first API version, shrinks the segment to that fraction of the
	// buffer (clamped to the reserved region), rounded down to a whole
	// record and at least one; zero leaves it whole.
	SegmentBytes uint32  `json:"segment_bytes,omitempty"`
	Watermark    float64 `json:"watermark,omitempty"`

	// Codec is "raw" or "delta" (default).
	Codec string `json:"codec,omitempty"`

	// Compress stores each spilled segment flate-compressed (the
	// per-segment payload encoding). Decode and analysis results are
	// byte-identical to an uncompressed capture; only the stored bytes
	// shrink.
	Compress bool `json:"compress,omitempty"`

	// CostPerRecord overrides the per-record microcycle cost (default
	// 56, the paper's measured dilation). Budget bounds the run in
	// instructions; zero picks the server's default.
	CostPerRecord uint32 `json:"cost_per_record,omitempty"`
	Budget        uint64 `json:"budget,omitempty"`
}

// Session states reported by SessionInfo.State.
const (
	SessionRunning = "running"
	SessionDone    = "done"   // workload halted, stream complete
	SessionFailed  = "failed" // boot or run error; Error says why
)

// SessionInfo describes one capture session. The accounting triple is
// the spill service's invariant surfaced per session: once the session
// has left the running state, Recorded == Spilled + Lost always holds
// (and Lost is zero unless the sink stalled).
type SessionInfo struct {
	Name      string   `json:"name"`
	Tenant    string   `json:"tenant"`
	State     string   `json:"state"`
	Workloads []string `json:"workloads"`
	Trace     string   `json:"trace"` // stored trace receiving segments

	Recorded uint64 `json:"recorded"`
	Spilled  uint64 `json:"spilled"`
	Lost     uint64 `json:"lost"`
	Dropped  uint64 `json:"dropped"`
	Segments uint32 `json:"segments"`

	Error string `json:"error,omitempty"`
}

// TraceInfo describes one stored trace from its header-only segment
// index — no payload is decoded to serve it.
type TraceInfo struct {
	Name      string `json:"name"`
	Tenant    string `json:"tenant"`
	Meta      string `json:"meta"`
	Bytes     uint64 `json:"bytes"`
	Records   uint64 `json:"records"`   // per stream headers
	Segmented bool   `json:"segmented"` // always true: every trace is a segment stream
	// Complete is false while a capture session is still appending.
	Complete bool                `json:"complete"`
	Segments []trace.SegmentInfo `json:"segments,omitempty"`
}

// AnalysisRequest names a stored trace and the sweep to run over it.
// Exactly the config slice matching Kind is consulted. The execution
// knobs (Workers, DecodeWorkers, Backpressure) never change results —
// except Backpressure "drop", which may shed records under load and
// reports what it shed.
type AnalysisRequest struct {
	Trace string `json:"trace"`
	Kind  string `json:"kind"`

	Caches      []cache.Config          `json:"caches,omitempty"`
	Hierarchies []cache.HierarchyConfig `json:"hierarchies,omitempty"`
	TBs         []tlbsim.Config         `json:"tbs,omitempty"`
	Stackdist   *stackdist.Options      `json:"stackdist,omitempty"`

	// Run carries the shared cache run options (PTE refs, set
	// sampling); UserOnly restricts every kind to the user-mode subset.
	Run      cache.RunOptions `json:"run,omitempty"`
	UserOnly bool             `json:"user_only,omitempty"`

	// CPU, when set, replays only the segments the given processor
	// captured (every segment carries its CPU; a serial capture is all
	// CPU 0). Nil replays the whole machine-wide interleave. Requests
	// naming a CPU no segment carries, or a negative one, fail rather
	// than silently analysing nothing.
	CPU *int `json:"cpu,omitempty"`

	Workers       int    `json:"workers,omitempty"`
	DecodeWorkers int    `json:"decode_workers,omitempty"`
	Backpressure  string `json:"backpressure,omitempty"` // "block" (default) or "drop"
	QueueChunks   int    `json:"queue_chunks,omitempty"`
}

// AnalysisResponse carries the result matching the request's Kind; the
// other fields stay empty. DroppedRecords is nonzero only under the
// "drop" backpressure policy.
type AnalysisResponse struct {
	Trace string `json:"trace"`
	Kind  string `json:"kind"`

	Caches      []cache.Result          `json:"caches,omitempty"`
	Hierarchies []cache.HierarchyResult `json:"hierarchies,omitempty"`
	TBs         []tlbsim.Stats          `json:"tbs,omitempty"`
	Stackdist   *stackdist.Profile      `json:"stackdist,omitempty"`
	Summary     *trace.Summary          `json:"summary,omitempty"`

	DroppedRecords uint64 `json:"dropped_records,omitempty"`
}

// LintResponse is the stored-trace lint endpoint's body: the shared
// findings schema, identical to atum-vet -json and trace.LintFindings.
type LintResponse struct {
	Trace    string             `json:"trace"`
	Findings []findings.Finding `json:"findings"`
}

// Error is the JSON body of every non-2xx response.
type Error struct {
	Error string `json:"error"`
}
