package serve

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"atum/internal/atum"
	"atum/internal/kernel"
	"atum/internal/micro"
	"atum/internal/serve/api"
	"atum/internal/trace"
	"atum/internal/workload"
)

// session is one live (or finished) capture: a booted machine running a
// workload mix with the ATUM patches installed, spilling segments into
// a stored trace. The machine runs on the session's own goroutine in
// bounded slices; between slices — the only moments the machine is
// quiescent — the goroutine snapshots the collector's plain counters
// under the mutex, which is what HTTP handlers read. Handlers never
// touch the collector directly while the machine may be running.
type session struct {
	name      string
	tenant    string
	workloads []string
	traceName string

	svc *kernel.SpillService
	st  *storedTrace

	mu       sync.Mutex
	state    string
	recorded uint64
	dropped  uint64
	errMsg   string

	stopReq atomic.Bool
	done    chan struct{}
}

// startSession validates the request, boots the mix, installs the spill
// service with the tenant's stored trace as its sink and launches the
// run goroutine. It returns once the capture is actually running.
func (t *tenant) startSession(req api.CreateSessionRequest, opts Options) (*session, error) {
	if err := validName(req.Name); err != nil {
		return nil, fmt.Errorf("session name: %w", err)
	}
	traceName := req.StoreAs
	if traceName == "" {
		traceName = req.Name
	}
	if err := validName(traceName); err != nil {
		return nil, fmt.Errorf("store_as: %w", err)
	}
	codec := trace.CodecDelta
	switch req.Codec {
	case "", "delta":
	case "raw":
		codec = trace.CodecRaw
	default:
		return nil, fmt.Errorf("unknown codec %q (want raw or delta)", req.Codec)
	}
	enc := trace.SegEncRaw
	if req.Compress {
		enc = trace.SegEncFlate
	}
	if req.Watermark < 0 || req.Watermark > 1 {
		return nil, fmt.Errorf("watermark %v out of (0, 1]", req.Watermark)
	}
	mix := req.Workloads
	if len(mix) == 0 {
		mix = workload.StandardMix
	}

	t.mu.Lock()
	if prev := t.sessions[req.Name]; prev != nil {
		if prev.info().State == api.SessionRunning {
			t.mu.Unlock()
			return nil, fmt.Errorf("session %q already running", req.Name)
		}
	}
	t.mu.Unlock()

	sys, err := workload.BootMix(kernel.DefaultConfig(), mix...)
	if err != nil {
		return nil, fmt.Errorf("boot %v: %w", mix, err)
	}

	st := t.createTrace(traceName, opts.SpoolBytes)
	aopts := atum.DefaultOptions()
	if req.CostPerRecord != 0 {
		aopts.CostPerRecord = req.CostPerRecord
	}
	segBytes := req.SegmentBytes
	if segBytes == 0 {
		segBytes = opts.SegmentBytes
	}
	svc, err := kernel.StartSpill(sys, st, kernel.SpillConfig{
		Options:      aopts,
		SegmentBytes: watermarkSegment(segBytes, sys.M.Mem.ReservedSize(), req.Watermark),
		Codec:        codec,
		Encoding:     enc,
		Meta:         fmt.Sprintf("atum-serve tenant=%s session=%s mix=%s", t.name, req.Name, strings.Join(mix, ",")),
		Metrics:      t.reg,
	})
	if err != nil {
		st.finish()
		return nil, err
	}

	s := &session{
		name:      req.Name,
		tenant:    t.name,
		workloads: mix,
		traceName: traceName,
		svc:       svc,
		st:        st,
		state:     api.SessionRunning,
		done:      make(chan struct{}),
	}
	t.mu.Lock()
	t.sessions[req.Name] = s
	t.mu.Unlock()

	budget := req.Budget
	if budget == 0 {
		budget = opts.Budget
	}
	go s.run(sys, budget)
	return s, nil
}

// watermarkSegment maps a request's watermark onto the segment size it
// implies: a spill at w × capacity, where capacity is the segment size
// clamped to the reserved region and record-aligned, rounded down to a
// whole record and at least one record. A zero watermark, or a capacity
// too small for one record, leaves the segment size as it is.
func watermarkSegment(segBytes, reserved uint32, w float64) uint32 {
	capacity := reserved
	if segBytes != 0 && segBytes < capacity {
		capacity = segBytes
	}
	capacity -= capacity % trace.RecordBytes
	if w == 0 || capacity < trace.RecordBytes {
		return segBytes
	}
	n := uint32(w * float64(capacity))
	n -= n % trace.RecordBytes
	return max(n, trace.RecordBytes)
}

// runSlice bounds how many instructions execute between collector
// snapshots (and stop-flag checks): small enough that DELETE responds
// promptly and SessionInfo stays fresh, large enough that slicing costs
// nothing against the capture itself.
const runSlice = 200_000

// run drives the machine to halt, budget exhaustion or a requested
// stop, then closes the spill service — which flushes the final partial
// segment and establishes Recorded == Spilled + Lost — and completes
// the stored trace.
func (s *session) run(sys *kernel.System, budget uint64) {
	defer close(s.done)
	var runErr error
	var ran uint64
loop:
	for runErr == nil && !s.stopReq.Load() {
		step := uint64(runSlice)
		if budget > 0 {
			if ran >= budget {
				break
			}
			if left := budget - ran; left < step {
				step = left
			}
		}
		reason, err := sys.Run(step)
		ran += step
		s.snapshot()
		if err != nil {
			runErr = err
			break
		}
		switch reason {
		case micro.StopHalt, micro.StopRequested:
			break loop
		}
	}
	closeErr := s.svc.Close()
	s.st.finish()
	s.snapshot()
	s.mu.Lock()
	switch {
	case runErr != nil:
		s.state = api.SessionFailed
		s.errMsg = runErr.Error()
	default:
		s.state = api.SessionDone
		if closeErr != nil {
			// Capture degraded (e.g. slow live consumers tripped the spool
			// budget) but the stream is complete and the accounting holds;
			// surface the diagnosis without failing the session.
			s.errMsg = closeErr.Error()
		}
	}
	s.mu.Unlock()
}

// snapshot copies the collector's plain counters while the machine is
// quiescent. Only the run goroutine calls it.
func (s *session) snapshot() {
	col := s.svc.Collector()
	s.mu.Lock()
	s.recorded = col.Recorded
	s.dropped = col.Dropped
	s.mu.Unlock()
}

// requestStop asks the run goroutine to wind down at the next slice
// boundary and waits until the capture is fully closed.
func (s *session) requestStop() {
	s.stopReq.Store(true)
	<-s.done
}

// info reports the session's current state. The spill counters are the
// service's atomics (safe live); recorded/dropped are the last
// quiescent-point snapshot.
func (s *session) info() api.SessionInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	return api.SessionInfo{
		Name:      s.name,
		Tenant:    s.tenant,
		State:     s.state,
		Workloads: s.workloads,
		Trace:     s.traceName,
		Recorded:  s.recorded,
		Spilled:   s.svc.SpilledRecords(),
		Lost:      s.svc.LostRecords(),
		Dropped:   s.dropped,
		Segments:  s.svc.Segments(),
		Error:     s.errMsg,
	}
}

// validName accepts the path-segment-safe names sessions, traces and
// tenants share: nonempty, letters/digits plus -_. only.
func validName(name string) error {
	if name == "" {
		return fmt.Errorf("empty name")
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
		default:
			return fmt.Errorf("name %q: character %q not allowed", name, r)
		}
	}
	return nil
}
