package kernel_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"reflect"
	"testing"

	"atum/internal/atum"
	"atum/internal/kernel"
	"atum/internal/obs"
	"atum/internal/trace"
	"atum/internal/vax"
)

// Two small programs that multiprogram against each other: enough
// references to fill several 4KB segments, with context switches and
// page activity in the stream. (This package cannot use
// internal/workload — workload imports kernel.)
const spillLoopSrc = `
	.org	0x200
start:	movl	#600, r6
loop:	addl3	r6, r7, r8
	movl	r8, scratch
	movl	scratch, r9
	sobgtr	r6, loop
	moval	msg, r1
	movl	#2, r2
	chmk	#1
	chmk	#0
msg:	.ascii	"a\n"
scratch: .long	0
`

const spillStoreSrc = `
	.org	0x200
start:	movl	#400, r6
	moval	buf, r2
loop:	movl	r6, (r2)
	addl3	(r2), r7, r8
	sobgtr	r6, loop
	chmk	#0
buf:	.long	0
`

func spillSystem(t *testing.T) *kernel.System {
	t.Helper()
	cfg := kernel.DefaultConfig()
	cfg.Machine.MemSize = 4 << 20
	cfg.Machine.ReservedSize = 256 << 10
	sys, err := kernel.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{spillLoopSrc, spillStoreSrc} {
		prog, err := vax.Assemble(src)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Spawn("w", prog, 16); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Finalize(); err != nil {
		t.Fatal(err)
	}
	return sys
}

// captureMonolithic traces the workload into one big buffer.
func captureMonolithic(t *testing.T) []trace.Word {
	t.Helper()
	sys := spillSystem(t)
	cap, err := atum.Run(sys.M, atum.DefaultOptions(), func() error {
		_, err := sys.Run(50_000_000)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return cap.All()
}

// TestSpillStitchingDeterminism is the acceptance-criteria test: a
// workload captured through N spilled segments must decode to records
// byte-identical to the same workload captured into one sufficiently
// large buffer, for N ∈ {1, 3, 8}. Extraction models the paper's
// freeze/dump/resume — it takes no machine time — so splitting the
// capture must not perturb execution at all.
func TestSpillStitchingDeterminism(t *testing.T) {
	want := captureMonolithic(t)
	if len(want) == 0 {
		t.Fatal("monolithic capture is empty")
	}
	wantBytes := encodeAll(t, want)

	for _, n := range []int{1, 3, 8} {
		for _, codec := range []uint16{trace.CodecRaw, trace.CodecDelta} {
			t.Run(fmt.Sprintf("n=%d codec=%d", n, codec), func(t *testing.T) {
				// Size the per-segment buffer so the capture spills exactly
				// n-1 times, the final partial segment closing the stream.
				per := (len(want) + n - 1) / n
				sys := spillSystem(t)
				var sink bytes.Buffer
				svc, err := kernel.StartSpill(sys, &sink, kernel.SpillConfig{
					Options:      atum.DefaultOptions(),
					SegmentBytes: uint32(per) * trace.RecordBytes,
					Codec:        codec,
					Meta:         "spill-test",
				})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := sys.Run(50_000_000); err != nil {
					t.Fatal(err)
				}
				if err := svc.Close(); err != nil {
					t.Fatal(err)
				}
				if svc.SinkErr() != nil || svc.Collector().Dropped != 0 {
					t.Fatalf("spill capture degraded: sinkErr=%v dropped=%d",
						svc.SinkErr(), svc.Collector().Dropped)
				}
				if svc.Segments() != uint32(n) {
					t.Fatalf("wrote %d segments, want %d", svc.Segments(), n)
				}

				// Read the spill output back through the random-access
				// fast path: the kernel's own stream exercises the
				// parallel segment decode end to end.
				rd, err := trace.OpenReaderAt(bytes.NewReader(sink.Bytes()), int64(sink.Len()))
				if err != nil {
					t.Fatal(err)
				}
				got, err := rd.Records(4)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("stitched %d records differ from monolithic %d", len(got), len(want))
				}
				if !bytes.Equal(encodeAll(t, got), wantBytes) {
					t.Fatal("stitched records not byte-identical to monolithic capture")
				}
				if got, want := svc.SpilledRecords(), uint64(len(want)); got != want {
					t.Fatalf("SpilledRecords=%d, want %d", got, want)
				}
				if rd.Meta() != "spill-test" {
					t.Fatalf("meta %q", rd.Meta())
				}
				// A serial capture is the one-CPU case of the SMP
				// stamps: CPU 0, marks 1..n in spill order.
				var dil uint64
				for i, s := range rd.Segments() {
					dil += s.DilationCycles
					if s.CPU != 0 || s.Seq != uint64(i+1) {
						t.Fatalf("segment %d stamped [cpu %d seq %d], want [cpu 0 seq %d]", i, s.CPU, s.Seq, i+1)
					}
				}
				if dil != svc.Collector().DilationCycles {
					t.Fatalf("per-segment dilation cycles sum to %d, collector charged %d",
						dil, svc.Collector().DilationCycles)
				}
			})
		}
	}
}

// encodeAll lays records out in their raw 8-byte form for byte-level
// comparison.
func encodeAll(t *testing.T, recs []trace.Word) []byte {
	t.Helper()
	out := make([]byte, 0, len(recs)*trace.RecordBytes)
	for _, r := range recs {
		out = binary.LittleEndian.AppendUint64(out, uint64(r))
	}
	return out
}

// TestSpillSinkStallDegradesToCountedDrops: when the sink fails
// mid-capture, the service pauses the collector, counts subsequent
// events as drops, and still leaves a valid (truncated but well-formed)
// stream behind.
func TestSpillSinkStallDegradesToCountedDrops(t *testing.T) {
	sys := spillSystem(t)
	sink := &stallingSink{limit: 8 << 10} // fail after 8KB reach the sink
	svc, err := kernel.StartSpill(sys, sink, kernel.SpillConfig{
		Options:      atum.DefaultOptions(),
		SegmentBytes: 4 << 10,
		Codec:        trace.CodecRaw,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(50_000_000); err != nil {
		t.Fatal(err)
	}
	err = svc.Close()
	if err == nil || svc.SinkErr() == nil {
		t.Fatal("sink stall not reported")
	}
	col := svc.Collector()
	if col.Dropped == 0 {
		t.Error("no events counted as dropped after the sink stalled")
	}
	if svc.SpilledRecords() == 0 {
		t.Error("nothing reached the sink before the stall")
	}
	if svc.LostRecords() == 0 {
		t.Error("the failed segment's records were not accounted as lost")
	}
	// The bytes that did reach the sink form a valid stream: every
	// complete segment before the stall decodes.
	rd, err := trace.OpenReaderAt(bytes.NewReader(sink.data.Bytes()), int64(sink.data.Len()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := rd.Records(2)
	if err != nil {
		t.Fatalf("pre-stall stream does not decode cleanly: %v", err)
	}
	if uint64(len(got)) != svc.SpilledRecords() {
		t.Fatalf("decoded %d records, service spilled %d", len(got), svc.SpilledRecords())
	}
}

// stallingSink accepts limit bytes, then fails every write — a disk
// filling up under the capture.
type stallingSink struct {
	data  bytes.Buffer
	limit int
}

func (s *stallingSink) Write(p []byte) (int, error) {
	if s.data.Len()+len(p) > s.limit {
		return 0, fmt.Errorf("sink full")
	}
	return s.data.Write(p)
}

// TestSpillRejectsOwnedCallbacks: the spill service owns the
// collector's OnFull, BufBytes and Metrics (it sets them from its own
// config); handing it options with any of them set is an error, on a
// serial start and on an SMP start.
func TestSpillRejectsOwnedCallbacks(t *testing.T) {
	for name, set := range map[string]func(*atum.Options){
		"OnFull":   func(o *atum.Options) { o.OnFull = func(*atum.Collector) {} },
		"BufBytes": func(o *atum.Options) { o.BufBytes = 4 << 10 },
		"Metrics":  func(o *atum.Options) { o.Metrics = obs.NewRegistry() },
	} {
		opts := atum.DefaultOptions()
		set(&opts)
		if _, err := kernel.StartSpill(spillSystem(t), &bytes.Buffer{}, kernel.SpillConfig{Options: opts}); err == nil {
			t.Errorf("%s accepted", name)
		}
		sinks := []io.Writer{&bytes.Buffer{}, &bytes.Buffer{}}
		if _, err := kernel.StartSpillCPUs(smpSystem(t, 2), sinks, kernel.SpillConfig{Options: opts}); err == nil {
			t.Errorf("%s accepted on an SMP start", name)
		}
	}
}
