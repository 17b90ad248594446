// Spill service: the OS half of long captures. The real ATUM system
// paired the microcode patches with an operating-system procedure that
// fielded the buffer-full condition, froze the machine, dumped the
// reserved region to stable storage and resumed — turning a few
// megabytes of reserved memory into arbitrarily long traces. StartSpill
// is that procedure: it installs a collector whose buffer-full
// interrupt extracts the segment and appends it to a segmented trace
// stream (internal/trace SegmentWriter). If the sink stalls, capture
// degrades gracefully to counted-drop mode instead of corrupting the
// stream.
//
// The service's counters are part of the observability contract: a
// monitoring goroutine may poll SpilledRecords/LostRecords/SinkErr (or
// scrape the obs registry) while the capture loop spills, so every
// counter is an atomic and the error/closed state sits behind a mutex.
package kernel

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"atum/internal/atum"
	"atum/internal/micro"
	"atum/internal/obs"
	"atum/internal/trace"
)

// SpillConfig parameterises a streaming capture.
type SpillConfig struct {
	// Options configures the underlying collector. The spill service
	// owns its OnFull, BufBytes and Metrics, which must be unset.
	Options atum.Options

	// SegmentBytes bounds the reserved buffer used per segment (the
	// collector's BufBytes); zero means the whole reserved region. The
	// service spills when the buffer is full, which is loss-free
	// because extraction (like the paper's freeze/dump) takes no
	// machine time.
	SegmentBytes uint32

	// Codec selects the stream codec (trace.CodecRaw or CodecDelta).
	Codec uint16

	// Encoding selects the per-segment payload encoding
	// (trace.SegEncRaw or trace.SegEncFlate). Flate trades spill-path
	// CPU for sink bytes — the paper's actual bottleneck was getting
	// records off the machine, and compression stretches the same sink
	// bandwidth severalfold over the delta codec alone.
	Encoding uint8

	// Meta is the stream's provenance string.
	Meta string

	// OnSegment, when set, observes every segment immediately after it
	// reaches the sink — the splice point for the streaming analysis
	// pipeline (sweep.Pipeline.OnSegment), which decodes and simulates
	// each segment while the capture continues. The callback is purely
	// observational: it runs on the spill path and cannot fail the
	// capture, and the segment payload is only valid during the call.
	OnSegment func(trace.StreamSegment)

	// Metrics selects the registry the service and its collector
	// instrument into; nil means obs.Default().
	Metrics *obs.Registry
}

// spillMetrics are the service's live telemetry: segments and records
// that reached the sink, bytes written, per-spill latency, records lost
// to a failed sink, and how many times the sink stalled.
type spillMetrics struct {
	segments   *obs.Counter
	records    *obs.Counter
	bytes      *obs.Counter
	compressed *obs.Counter
	lost       *obs.Counter
	dropped    *obs.Counter
	stalls     *obs.Counter
	latency    *obs.Histogram
}

func newSpillMetrics(r *obs.Registry) spillMetrics {
	if r == nil {
		r = obs.Default()
	}
	return spillMetrics{
		segments: r.Counter("atum_spill_segments_total"),
		records:  r.Counter("atum_spill_records_total"),
		bytes:    r.Counter("atum_spill_bytes_total"),
		// Stored payload bytes of segments that actually compressed;
		// against atum_spill_bytes_total this reads out the on-disk win.
		compressed: r.Counter("atum_spill_compressed_bytes_total"),
		lost:       r.Counter("atum_spill_lost_records_total"),
		dropped:    r.Counter("atum_spill_dropped_total"),
		stalls:     r.Counter("atum_spill_sink_stalls_total"),
		latency:    r.Histogram("atum_spill_latency_seconds", obs.DefSecondsBuckets),
	}
}

// countingWriter charges every byte that reaches the sink to the
// registry before passing it through.
type countingWriter struct {
	w io.Writer
	n *obs.Counter
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n.Add(uint64(n))
	return n, err
}

// SpillService owns an installed collector streaming to a sink.
type SpillService struct {
	col *atum.Collector
	sw  *trace.SegmentWriter
	cpu uint16            // written into every segment header
	seq *trace.SeqCounter // machine-wide sequence marks, one per spill

	// spilled/lost/segments are polled by monitors while the capture
	// loop writes them: atomics, never plain fields.
	spilled  atomic.Uint64
	lost     atomic.Uint64 // records captured but never written (sink failure)
	segments atomic.Uint32

	mu      sync.Mutex
	sinkErr error // guarded by mu
	closed  bool  // guarded by mu

	// spillMu serializes segment extraction/write bodies with Close's
	// final drain, so a buffer-full spill in flight (and its OnSegment
	// observer) finishes before the stream is footered — and so a second
	// Close cannot observe counters mid-update.
	spillMu sync.Mutex
	// done is closed when the first Close finishes; later Closes block
	// on it so *every* returning Close sees final accounting
	// (Recorded == SpilledRecords + LostRecords) and a complete stream.
	done chan struct{}

	met spillMetrics
}

// StartSpill installs ATUM on the system's machine and arranges for
// every buffer fill to append one segment to w, marked CPU 0
// with sequence marks 1, 2, 3, ... from the service's own counter. The
// caller runs the workload, then calls Close to flush the final
// partial segment and uninstall the patches.
func StartSpill(sys *System, w io.Writer, cfg SpillConfig) (*SpillService, error) {
	return startSpillOn(sys.M, w, cfg, 0, new(trace.SeqCounter))
}

// StartSpillCPUs starts one spill service per core of an SMP system,
// each streaming to the matching sink. The reserved region is divided
// into equal per-CPU slices (each core's microcode writes only its own
// slice), and all services share one sequence counter, so the per-CPU
// streams carry globally ordered sequence marks and trace.MergeCPUs can
// reassemble the machine-wide spill order afterwards. If any service
// fails to start, StartSpillCPUs closes the ones it already started and
// returns no services with the error; otherwise the caller closes every
// returned service.
func StartSpillCPUs(sys *System, sinks []io.Writer, cfg SpillConfig) ([]*SpillService, error) {
	n := sys.NumCPUs()
	if len(sinks) != n {
		return nil, fmt.Errorf("kernel: %d spill sinks for %d CPUs", len(sinks), n)
	}
	seq := new(trace.SeqCounter)
	reserved := sys.M.Mem.ReservedSize()
	slice := reserved / uint32(n)
	slice -= slice % trace.RecordBytes
	if slice == 0 {
		return nil, fmt.Errorf("kernel: %d-byte reserved region cannot hold %d per-CPU buffers", reserved, n)
	}
	if cfg.SegmentBytes == 0 || cfg.SegmentBytes > slice {
		cfg.SegmentBytes = slice
	}
	svcs := make([]*SpillService, 0, n)
	for c, m := range sys.Cores {
		ccfg := cfg
		ccfg.Options.BufOffset = uint32(c) * slice
		s, err := startSpillOn(m, sinks[c], ccfg, uint16(c), seq)
		if err != nil {
			for _, prev := range svcs {
				prev.Close()
			}
			return nil, fmt.Errorf("kernel: spill service for CPU %d: %w", c, err)
		}
		svcs = append(svcs, s)
	}
	return svcs, nil
}

func startSpillOn(m *micro.Machine, w io.Writer, cfg SpillConfig, cpu uint16, seq *trace.SeqCounter) (*SpillService, error) {
	if cfg.Options.OnFull != nil || cfg.Options.BufBytes != 0 || cfg.Options.Metrics != nil {
		return nil, fmt.Errorf("kernel: spill service owns the collector's OnFull, BufBytes and Metrics")
	}
	met := newSpillMetrics(cfg.Metrics)
	cw := &countingWriter{w: w, n: met.bytes}
	sw, err := trace.NewSegmentWriter(cw, cfg.Codec, cfg.Meta)
	if err != nil {
		return nil, err
	}
	if err := sw.SetEncoding(cfg.Encoding); err != nil {
		return nil, err
	}
	if cfg.OnSegment != nil {
		sw.Tee(cfg.OnSegment)
	}
	s := &SpillService{sw: sw, cpu: cpu, seq: seq, met: met, done: make(chan struct{})}
	opts := cfg.Options
	opts.BufBytes = cfg.SegmentBytes
	opts.Metrics = cfg.Metrics
	opts.OnFull = s.spill
	col, err := atum.Install(m, opts)
	if err != nil {
		return nil, err
	}
	s.col = col
	return s, nil
}

// spill extracts the buffered segment and appends it to the stream.
// On a sink error the records are abandoned (counted via the service's
// accounting, not silently) and the collector is left paused so
// subsequent events are counted as dropped rather than half-written.
func (s *SpillService) spill(c *atum.Collector) {
	s.spillMu.Lock()
	defer s.spillMu.Unlock()
	s.spillLocked(c)
}

func (s *SpillService) spillLocked(c *atum.Collector) {
	// The packed records are a view of reserved RAM: the machine stays
	// frozen until this returns, so they are written straight from
	// there, never parsed.
	packed, st, err := c.ExtractSegment()
	if err != nil {
		// Extraction reads simulated RAM; failure means the machine is
		// torn down — treat it like a sink failure.
		s.fail(c, err)
		return
	}
	nrec := uint64(len(packed) / trace.RecordBytes)
	if err := s.SinkErr(); err != nil {
		s.addLost(nrec)
		s.fail(c, err)
		return
	}
	if nrec == 0 && st == (atum.SegmentStats{}) {
		// Nothing happened since the last spill (a capture ending exactly
		// on a buffer boundary): no segment to write.
		return
	}
	start := time.Now()
	info, err := s.sw.WritePacked(packed, trace.SegmentInfo{
		Dropped: st.Dropped, DilationCycles: st.DilationCycles, CPU: s.cpu, Seq: s.seq.Next(),
	})
	if err != nil {
		s.addLost(nrec)
		s.fail(c, err)
		return
	}
	s.met.latency.Observe(time.Since(start).Seconds())
	if info.Encoding != trace.SegEncRaw {
		s.met.compressed.Add(info.PayloadBytes)
	}
	s.segments.Add(1)
	s.met.segments.Inc()
	s.met.dropped.Add(st.Dropped)
	s.spilled.Add(nrec)
	s.met.records.Add(nrec)
}

// addLost charges records that will never reach the sink.
func (s *SpillService) addLost(n uint64) {
	if n == 0 {
		return
	}
	s.lost.Add(n)
	s.met.lost.Add(n)
}

// fail records the first sink error (later failures keep the original
// diagnosis) and pauses the collector.
func (s *SpillService) fail(c *atum.Collector, err error) {
	s.mu.Lock()
	if s.sinkErr == nil {
		s.sinkErr = err
		s.met.stalls.Inc()
	}
	s.mu.Unlock()
	c.Pause()
}

// Close flushes the final partial segment, closes the stream and
// uninstalls the patches. The stream on disk is complete and valid
// whether or not the sink ever failed; SinkErr reports if capture
// degraded along the way. Close is idempotent, and a concurrent or
// repeated Close *blocks* until the first closer has fully drained: by
// the time any Close returns, every segment (and OnSegment callback)
// has been delivered and Recorded == SpilledRecords + LostRecords
// holds. After a sink failure, Close returns the first sink error —
// not the flush error that usually follows it — and records still in
// the reserved buffer are counted as lost, preserving the same
// identity.
func (s *SpillService) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		// Another closer got here first. Returning its stale view (the
		// old behaviour) let a caller observe the service with the final
		// segment still in flight — records neither spilled nor lost.
		// Wait for the drain instead.
		<-s.done
		return s.SinkErr()
	}
	s.closed = true
	s.mu.Unlock()
	defer close(s.done)
	// The final drain runs under spillMu so a buffer-full spill already in
	// flight completes (sink write, counters, OnSegment) before the
	// footer is written.
	s.spillMu.Lock()
	if s.SinkErr() == nil {
		s.spillLocked(s.col)
	} else {
		// The sink is gone: whatever the buffer still holds can never be
		// written. Account it as lost rather than letting it vanish.
		s.addLost(uint64(s.col.BufferedRecords()))
	}
	s.col.Uninstall()
	err := s.sw.Close()
	s.spillMu.Unlock()
	if err != nil {
		s.mu.Lock()
		if s.sinkErr == nil {
			s.sinkErr = err
		}
		s.mu.Unlock()
	}
	return s.SinkErr()
}

// Collector exposes the underlying collector (statistics, pause/resume).
func (s *SpillService) Collector() *atum.Collector { return s.col }

// Segments returns how many segments have been written to the sink.
// Safe to call from a polling goroutine during capture.
func (s *SpillService) Segments() uint32 { return s.segments.Load() }

// SpilledRecords returns how many records reached the sink. Safe to
// call from a polling goroutine during capture.
func (s *SpillService) SpilledRecords() uint64 { return s.spilled.Load() }

// LostRecords returns how many captured records a failed sink swallowed
// (distinct from the collector's Dropped, which counts events never
// captured at all). Safe to call from a polling goroutine.
func (s *SpillService) LostRecords() uint64 { return s.lost.Load() }

// SinkErr returns the first sink failure, if any. Safe to call from a
// polling goroutine.
func (s *SpillService) SinkErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sinkErr
}
