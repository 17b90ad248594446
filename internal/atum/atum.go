// Package atum implements the paper's contribution: Address Tracing
// Using Microcode. Install patches the machine's microcode layer so
// that, as a side effect of normal execution, every memory reference —
// instruction fetch, operand read and write, the page-table references
// made by the translation-buffer miss microcode, plus context-switch and
// exception markers — is written as a packed record into a reserved
// region of physical main memory.
//
// Key properties preserved from the original system:
//
//   - Tracing lives below the architecture. The operating system and the
//     user programs execute unmodified and cannot observe tracing except
//     as slowdown; kernel references, interrupt activity, and
//     multiprogramming are all captured.
//   - The trace buffer is physical memory, written by "microcode" stores
//     that bypass address translation, exactly like the 8200 patches.
//     The OS is configured with that region held out of its frame pool.
//   - Tracing costs microcycles. Each record charges CostPerRecord to
//     the machine's clock, so the machine measurably dilates (about 20x
//     on the original hardware); dilation here is measured, not assumed.
//   - When the buffer fills, the sample ends: recording pauses and a
//     Go-side callback — playing the role of the paper's freeze/dump/
//     resume procedure — may extract the sample and restart tracing.
package atum

import (
	"fmt"

	"atum/internal/mem"
	"atum/internal/micro"
	"atum/internal/obs"
	"atum/internal/trace"
	"atum/internal/vax"
)

// Options configures a Collector.
type Options struct {
	// CostPerRecord is the microcycles each trace record costs. The
	// default (56) corresponds to a trace-store microcode sequence of a
	// few dozen microinstructions on a machine without spare scratch
	// registers — calibrated so the measured dilation on reference-dense
	// code lands near the factor of ~20 the paper reports for the 8200
	// patches. The A1 ablation sweeps this cost.
	CostPerRecord uint32

	// BufBytes bounds the trace buffer. Zero means the machine's whole
	// reserved region. It is rounded down to a record multiple.
	BufBytes uint32

	// BufOffset places the buffer BufOffset bytes into the reserved
	// region instead of at its base. An SMP capture slices the one
	// reserved region into per-CPU buffers this way — each core's
	// collector records into its own slice, so cores never contend for
	// a write pointer. Must be a record multiple.
	BufOffset uint32

	// OnFull, if non-nil, is called when the buffer fills (the sample is
	// complete) — the one buffer-full interrupt. The callback typically
	// calls Extract or ExtractSegment, which resumes recording; if it
	// leaves the collector paused, subsequent references are counted as
	// dropped. If nil, the collector simply pauses.
	OnFull func(*Collector)

	// Metrics selects the registry the collector's live telemetry goes
	// to; nil means obs.Default(). Telemetry is Go-side only — it never
	// charges simulated cycles, so dilation is identical with any
	// registry (pinned by TestMetricsOffMeasurementPath).
	Metrics *obs.Registry
}

// DefaultOptions returns the standard configuration.
func DefaultOptions() Options { return Options{CostPerRecord: 56} }

// Collector is an installed ATUM patch set.
type Collector struct {
	m    *micro.Machine
	phys *mem.Physical // m.Mem, held here so the trace store's Store64 call inlines
	opts Options

	base uint32 // physical base of the trace buffer
	size uint32 // bytes
	ptr  uint32 // next write offset

	recording bool
	installed bool

	removes []func()

	// Statistics.
	Recorded       uint64 // records written
	Dropped        uint64 // events lost while paused/full
	Samples        uint64 // times the buffer filled
	DilationCycles uint64 // total microcycles charged for trace stores

	// Per-segment marks: the statistics values at the last extraction,
	// so ExtractSegment can report deltas.
	segDroppedMark uint64
	segCyclesMark  uint64

	// unpublished counts records per kind not yet added to the obs
	// counters. The trace store bumps these plain fields; publish
	// moves them into the registry once per segment.
	unpublished [trace.NumKinds]uint64

	met captureMetrics
}

// captureMetrics are the collector's live counters in the obs registry:
// what the capture has recorded (total and per kind), what it has lost,
// and how often the buffer-full interrupt fired. They shadow the
// exported statistics fields so a monitoring goroutine can watch a
// capture without touching the (unsynchronised) collector. The record
// counters advance once per segment — at every fill, extraction and
// Uninstall — so they lag the capture by at most one buffer.
type captureMetrics struct {
	records *obs.Counter
	dropped *obs.Counter
	fills   *obs.Counter
	kind    [trace.NumKinds]*obs.Counter
}

// kindMetricNames spell each record kind into its metric label once, at
// install time — the hot path only indexes the resolved counter array.
var kindMetricNames = [trace.NumKinds]string{
	trace.KindIFetch:    "ifetch",
	trace.KindDRead:     "dread",
	trace.KindDWrite:    "dwrite",
	trace.KindPTERead:   "pteread",
	trace.KindPTEWrite:  "ptewrite",
	trace.KindCtxSwitch: "ctxswitch",
	trace.KindException: "exception",
}

func newCaptureMetrics(r *obs.Registry) captureMetrics {
	if r == nil {
		r = obs.Default()
	}
	m := captureMetrics{
		records: r.Counter("atum_capture_records_total"),
		dropped: r.Counter("atum_capture_dropped_total"),
		fills:   r.Counter("atum_capture_fills_total"),
	}
	for k, name := range kindMetricNames {
		if name == "" {
			name = fmt.Sprintf("kind%d", k)
		}
		m.kind[k] = r.Counter(fmt.Sprintf("atum_capture_records_kind_total{kind=%q}", name))
	}
	return m
}

// Install patches the machine. The machine's reserved region must be
// large enough for at least one record.
func Install(m *micro.Machine, opts Options) (*Collector, error) {
	if opts.CostPerRecord == 0 {
		opts.CostPerRecord = 56
	}
	base := m.Mem.ReservedBase()
	size := m.Mem.ReservedSize()
	if opts.BufOffset != 0 {
		if opts.BufOffset%trace.RecordBytes != 0 {
			return nil, fmt.Errorf("atum: buffer offset %d is not a record multiple", opts.BufOffset)
		}
		if opts.BufOffset >= size {
			return nil, fmt.Errorf("atum: buffer offset %d outside the %d-byte reserved region", opts.BufOffset, size)
		}
		base += opts.BufOffset
		size -= opts.BufOffset
	}
	if opts.BufBytes != 0 && opts.BufBytes < size {
		size = opts.BufBytes
	}
	size -= size % trace.RecordBytes
	if size < trace.RecordBytes {
		return nil, fmt.Errorf("atum: reserved region too small (%d bytes)", size)
	}
	c := &Collector{m: m, phys: m.Mem, opts: opts, base: base, size: size, recording: true, installed: true,
		met: newCaptureMetrics(opts.Metrics)}
	hook := func(mm *micro.Machine, a micro.Access) { c.record(a) }
	for ev := micro.Event(0); ev < micro.NumEvents; ev++ {
		c.removes = append(c.removes, m.AddHook(ev, hook))
	}
	return c, nil
}

// record is the trace-store microcode: pack the record, store it into
// reserved physical memory, bump the pointer, charge the microcycles.
func (c *Collector) record(a micro.Access) {
	if !c.recording {
		c.Dropped++
		c.met.dropped.Inc()
		return
	}
	c.m.ChargeCycles(c.opts.CostPerRecord)
	c.DilationCycles += uint64(c.opts.CostPerRecord)
	// Micro-event classes and record kinds share their numbering
	// (pinned by TestEventKindMapping), so the event is the kind.
	k := trace.Kind(a.Ev)
	rec := trace.Pack(k, a.VA, a.Width, a.PID, a.Mode == vax.ModeUser, a.Phys, a.Extra)
	// Direct physical store, bypassing translation — the microcode
	// writes through the memory controller like the 8200 patches.
	if err := c.phys.Store64(c.base+c.ptr, uint64(rec)); err != nil {
		// The reserved region is inside RAM by construction.
		panic(fmt.Sprintf("atum: trace store failed: %v", err))
	}
	c.ptr += trace.RecordBytes
	c.Recorded++
	c.unpublished[k]++
	if c.ptr >= c.size {
		c.Samples++
		c.recording = false
		c.met.fills.Inc()
		c.publish()
		if c.opts.OnFull != nil {
			c.opts.OnFull(c)
		}
	}
}

// publish adds the records counted since the last publish to the obs
// counters.
func (c *Collector) publish() {
	var total uint64
	for k, n := range c.unpublished {
		if n != 0 {
			c.met.kind[k].Add(n)
			total += n
		}
	}
	c.unpublished = [trace.NumKinds]uint64{}
	c.met.records.Add(total)
}

// SegmentStats carries the capture-side counters for one extracted
// segment: what was lost and what tracing cost while it accumulated.
// They are the per-segment metadata the segmented container stores.
type SegmentStats struct {
	Dropped        uint64 // events lost since the previous extraction
	DilationCycles uint64 // trace-store microcycles charged since then
}

// Extract parses the records accumulated so far, resets the buffer
// pointer, and resumes recording. It models the paper's procedure of
// freezing the machine, dumping the reserved region, and continuing.
func (c *Collector) Extract() ([]trace.Word, error) {
	packed, _, err := c.ExtractSegment()
	if err != nil {
		return nil, err
	}
	return trace.ParseBuffer(packed)
}

// ExtractSegment is the dump without the parse: it returns the packed
// records accumulated so far — a view of reserved RAM, valid until the
// collector records again — plus the per-segment accounting a spill
// service stores alongside them: drops and dilation cycles accumulated
// since the previous extraction. Like Extract it resets the buffer
// pointer and resumes recording.
func (c *Collector) ExtractSegment() ([]byte, SegmentStats, error) {
	packed, err := c.phys.Bytes(c.base, c.ptr)
	if err != nil {
		return nil, SegmentStats{}, err
	}
	c.publish()
	st := SegmentStats{
		Dropped:        c.Dropped - c.segDroppedMark,
		DilationCycles: c.DilationCycles - c.segCyclesMark,
	}
	c.segDroppedMark = c.Dropped
	c.segCyclesMark = c.DilationCycles
	c.ptr = 0
	c.recording = true
	return packed, st, nil
}

// Pause suspends recording (references are counted as dropped).
func (c *Collector) Pause() { c.recording = false }

// Resume restarts recording into the remaining buffer space.
func (c *Collector) Resume() {
	if c.ptr < c.size {
		c.recording = true
	}
}

// BufferedRecords returns the number of records currently in the buffer.
func (c *Collector) BufferedRecords() uint32 { return c.ptr / trace.RecordBytes }

// Uninstall removes the patches; the machine runs at full speed again.
func (c *Collector) Uninstall() {
	if !c.installed {
		return
	}
	c.installed = false
	c.recording = false
	c.publish()
	for _, rm := range c.removes {
		rm()
	}
	c.removes = nil
}
