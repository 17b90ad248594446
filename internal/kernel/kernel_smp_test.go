package kernel_test

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"sort"
	"sync"
	"testing"

	"atum/internal/kernel"
	"atum/internal/micro"
	"atum/internal/trace"
	"atum/internal/vax"
)

// smpSystem boots an ncpu-core machine multiprogrammed heavily enough
// that every core has work and the scheduler migrates processes: six
// processes alternating the two spill-test programs.
func smpSystem(t *testing.T, ncpu int) *kernel.System {
	t.Helper()
	cfg := kernel.DefaultConfig()
	cfg.Machine.MemSize = 4 << 20
	cfg.Machine.ReservedSize = 256 << 10
	cfg.CPUs = ncpu
	sys, err := kernel.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srcs := []string{spillLoopSrc, spillStoreSrc}
	for i := 0; i < 6; i++ {
		prog, err := vax.Assemble(srcs[i%2])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Spawn(fmt.Sprintf("w%d", i), prog, 16); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Finalize(); err != nil {
		t.Fatal(err)
	}
	return sys
}

// runSMPCapture boots an ncpu system with per-CPU spill services
// writing the given codec and payload encoding, runs it to a clean
// halt, and returns the closed services with their per-CPU streams.
func runSMPCapture(t *testing.T, ncpu int, codec uint16, enc uint8) ([]*kernel.SpillService, []*bytes.Buffer) {
	t.Helper()
	sys := smpSystem(t, ncpu)
	sinks := make([]*bytes.Buffer, ncpu)
	writers := make([]io.Writer, ncpu)
	for i := range sinks {
		sinks[i] = new(bytes.Buffer)
		writers[i] = sinks[i]
	}
	svcs, err := kernel.StartSpillCPUs(sys, writers, kernel.SpillConfig{
		SegmentBytes: 8 << 10,
		Codec:        codec,
		Encoding:     enc,
		Meta:         "smp-test",
	})
	if err != nil {
		t.Fatal(err)
	}
	stop, err := sys.Run(2_000_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if stop != micro.StopHalt {
		t.Fatalf("system stopped on %v, want halt", stop)
	}
	for c, svc := range svcs {
		if err := svc.Close(); err != nil {
			t.Fatalf("cpu %d: Close: %v", c, err)
		}
	}
	return svcs, sinks
}

// TestSMPBootDeterminism: an N-core boot is a pure function of its
// config — every process exits cleanly, and a re-run reproduces the
// console, the exit statuses, and each core's cycle count exactly.
func TestSMPBootDeterminism(t *testing.T) {
	for _, ncpu := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("cpus=%d", ncpu), func(t *testing.T) {
			type outcome struct {
				console  string
				statuses []uint32
				cycles   []uint64
			}
			run := func() outcome {
				sys := smpSystem(t, ncpu)
				stop, err := sys.Run(2_000_000_000)
				if err != nil {
					t.Fatal(err)
				}
				if stop != micro.StopHalt {
					t.Fatalf("stopped on %v, want halt", stop)
				}
				var o outcome
				o.console = sys.Console()
				for _, p := range sys.Procs {
					st, err := sys.ExitStatus(p)
					if err != nil {
						t.Fatal(err)
					}
					if st == kernel.KilledStatus {
						t.Fatalf("process %q was killed", p.Name)
					}
					o.statuses = append(o.statuses, st)
				}
				for _, c := range sys.Cores {
					o.cycles = append(o.cycles, c.Cycles)
				}
				return o
			}
			first, second := run(), run()
			if !reflect.DeepEqual(first, second) {
				t.Fatalf("re-run diverged:\n  first:  %+v\n  second: %+v", first, second)
			}
		})
	}
}

// TestSMPPerCPUSpillAccounting: with one spill service per core, each
// core's books must balance — Recorded == Spilled + Lost, nothing
// dropped, nothing lost — and the merged stream must carry exactly the
// records every core captured, attributable back to its core.
func TestSMPPerCPUSpillAccounting(t *testing.T) {
	for _, ncpu := range []int{2, 4} {
		t.Run(fmt.Sprintf("cpus=%d", ncpu), func(t *testing.T) {
			svcs, sinks := runSMPCapture(t, ncpu, trace.CodecDelta, trace.SegEncRaw)
			files := make([]*trace.File, ncpu)
			var total uint64
			for c, svc := range svcs {
				col := svc.Collector()
				if got := svc.SpilledRecords() + svc.LostRecords(); col.Recorded != got {
					t.Errorf("cpu %d: Recorded=%d but Spilled+Lost=%d", c, col.Recorded, got)
				}
				if svc.LostRecords() != 0 || col.Dropped != 0 || svc.SinkErr() != nil {
					t.Errorf("cpu %d: capture degraded: lost=%d dropped=%d sinkErr=%v",
						c, svc.LostRecords(), col.Dropped, svc.SinkErr())
				}
				if svc.SpilledRecords() == 0 {
					t.Errorf("cpu %d: spilled nothing; core never ran traced work", c)
				}
				total += svc.SpilledRecords()
				f, err := trace.OpenReaderAt(bytes.NewReader(sinks[c].Bytes()), int64(sinks[c].Len()))
				if err != nil {
					t.Fatalf("cpu %d: %v", c, err)
				}
				files[c] = f
			}

			var merged bytes.Buffer
			if err := trace.MergeCPUs(&merged, "smp-test merged", files...); err != nil {
				t.Fatal(err)
			}
			mf, err := trace.OpenReaderAt(bytes.NewReader(merged.Bytes()), int64(merged.Len()))
			if err != nil {
				t.Fatal(err)
			}
			if mf.NumRecords() != total {
				t.Fatalf("merged stream has %d records, cores spilled %d", mf.NumRecords(), total)
			}
			for c := range svcs {
				a, err := mf.ArenaCPU(2, c)
				if err != nil {
					t.Fatalf("cpu %d: %v", c, err)
				}
				want, err := files[c].Records(2)
				if err != nil {
					t.Fatal(err)
				}
				if got := a.Flatten(); !reflect.DeepEqual(got, want) {
					t.Fatalf("cpu %d: merged per-core replay (%d records) differs from its own stream (%d)",
						c, len(got), len(want))
				}
			}
		})
	}
}

// TestSMPMergeMatchesReencode: on real 2- and 4-core captures of the
// mix — delta-coded with flate payloads, delta-coded with raw payloads
// and raw-coded — the spliced merge is byte-identical to the merge done
// the long way: decode every segment in mark order and write its
// records again with its original payload encoding and stamps.
func TestSMPMergeMatchesReencode(t *testing.T) {
	for _, ncpu := range []int{2, 4} {
		for _, c := range []struct {
			codec uint16
			enc   uint8
		}{{trace.CodecDelta, trace.SegEncFlate}, {trace.CodecDelta, trace.SegEncRaw}, {trace.CodecRaw, trace.SegEncRaw}} {
			t.Run(fmt.Sprintf("cpus=%d/codec=%d/enc=%d", ncpu, c.codec, c.enc), func(t *testing.T) {
				_, sinks := runSMPCapture(t, ncpu, c.codec, c.enc)
				files := make([]*trace.File, ncpu)
				for i, sink := range sinks {
					f, err := trace.OpenReaderAt(bytes.NewReader(sink.Bytes()), int64(sink.Len()))
					if err != nil {
						t.Fatal(err)
					}
					files[i] = f
				}
				var got bytes.Buffer
				if err := trace.MergeCPUs(&got, "smp-test merged", files...); err != nil {
					t.Fatal(err)
				}
				want := reencodeMerge(t, "smp-test merged", files)
				if !bytes.Equal(got.Bytes(), want) {
					t.Fatalf("spliced merge (%d bytes) differs from the re-encoded one (%d bytes)", got.Len(), len(want))
				}
				mf, err := trace.OpenReaderAt(bytes.NewReader(got.Bytes()), int64(got.Len()))
				if err != nil {
					t.Fatal(err)
				}
				flate := 0
				for _, s := range mf.Segments() {
					if s.Encoding == trace.SegEncFlate {
						flate++
					}
				}
				if n := len(mf.Segments()); n <= 2*ncpu || (c.enc == trace.SegEncFlate) != (flate > 0) {
					t.Fatalf("merged %d segments, %d of them flate-stored: the capture does not exercise the merge", n, flate)
				}
			})
		}
	}
}

// reencodeMerge merges per-CPU streams the long way, as the oracle for
// trace.MergeCPUs.
func reencodeMerge(t *testing.T, meta string, files []*trace.File) []byte {
	t.Helper()
	type seg struct {
		f    *trace.File
		i    int
		info trace.SegmentInfo
	}
	var segs []seg
	for _, f := range files {
		for i, info := range f.Segments() {
			segs = append(segs, seg{f, i, info})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].info.Seq < segs[j].info.Seq })
	var buf bytes.Buffer
	sw, err := trace.NewSegmentWriter(&buf, files[0].Codec(), meta)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range segs {
		recs, err := s.f.Segment(s.i)
		if err != nil {
			t.Fatal(err)
		}
		if err := sw.SetEncoding(s.info.Encoding); err != nil {
			t.Fatal(err)
		}
		if _, err := sw.WriteSegment(recs, s.info); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSMPMigrationVisibleInTrace: the scheduler migrates processes
// across cores, and the per-CPU streams record it — at least one user
// PID's references appear on more than one core.
func TestSMPMigrationVisibleInTrace(t *testing.T) {
	_, sinks := runSMPCapture(t, 2, trace.CodecDelta, trace.SegEncRaw)
	cpus := make(map[uint8]map[int]bool)
	for c, sink := range sinks {
		f, err := trace.OpenReaderAt(bytes.NewReader(sink.Bytes()), int64(sink.Len()))
		if err != nil {
			t.Fatal(err)
		}
		recs, err := f.Records(2)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if !r.User() {
				continue
			}
			if cpus[r.PID()] == nil {
				cpus[r.PID()] = make(map[int]bool)
			}
			cpus[r.PID()][c] = true
		}
	}
	migrated := 0
	for _, on := range cpus {
		if len(on) > 1 {
			migrated++
		}
	}
	if migrated == 0 {
		t.Fatalf("no PID ran on more than one core (per-PID cpu sets: %v)", cpus)
	}
}

// TestSMPSpillPartialStartFails: when one core's service cannot start —
// here CPU 1's sink fails on the stream header — StartSpillCPUs closes
// the services it already started and returns none, with the error. No
// collector is left installed: the mix then runs exactly as an untraced
// boot does, cycle for cycle on every core.
func TestSMPSpillPartialStartFails(t *testing.T) {
	sys := smpSystem(t, 2)
	sinks := []io.Writer{new(bytes.Buffer), &stallingSink{}}
	svcs, err := kernel.StartSpillCPUs(sys, sinks, kernel.SpillConfig{
		SegmentBytes: 8 << 10,
		Codec:        trace.CodecDelta,
		Meta:         "smp-partial",
	})
	if err == nil {
		t.Fatal("CPU 1's failing sink accepted")
	}
	if svcs != nil {
		t.Fatalf("%d services returned with the error", len(svcs))
	}
	bare := smpSystem(t, 2)
	for _, s := range []*kernel.System{sys, bare} {
		if _, err := s.Run(2_000_000_000); err != nil {
			t.Fatal(err)
		}
	}
	for c := range bare.Cores {
		if got, want := sys.Cores[c].Cycles, bare.Cores[c].Cycles; got != want {
			t.Errorf("cpu %d: %d cycles after the failed start, %d untraced", c, got, want)
		}
	}
	if sys.Console() != bare.Console() {
		t.Errorf("console %q after the failed start, %q untraced", sys.Console(), bare.Console())
	}
}

// TestSMPSpillPollingRace: the monitoring surface of every per-CPU
// spill service is safe to poll from another goroutine mid-capture.
// Run with -race; the assertions are in the detector.
func TestSMPSpillPollingRace(t *testing.T) {
	sys := smpSystem(t, 2)
	sinks := []io.Writer{new(bytes.Buffer), new(bytes.Buffer)}
	svcs, err := kernel.StartSpillCPUs(sys, sinks, kernel.SpillConfig{
		SegmentBytes: 8 << 10,
		Codec:        trace.CodecDelta,
		Meta:         "smp-race",
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			for _, svc := range svcs {
				_ = svc.SpilledRecords()
				_ = svc.LostRecords()
				_ = svc.Segments()
				_ = svc.SinkErr()
			}
		}
	}()
	if _, err := sys.Run(2_000_000_000); err != nil {
		t.Fatal(err)
	}
	close(done)
	wg.Wait()
	for c, svc := range svcs {
		if err := svc.Close(); err != nil {
			t.Fatalf("cpu %d: %v", c, err)
		}
		col := svc.Collector()
		if got := svc.SpilledRecords() + svc.LostRecords(); col.Recorded != got {
			t.Errorf("cpu %d: Recorded=%d but Spilled+Lost=%d", c, col.Recorded, got)
		}
	}
}
