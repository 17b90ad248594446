package kernel_test

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"testing"

	"atum/internal/kernel"
	"atum/internal/micro"
	"atum/internal/mmu"
	"atum/internal/trace"
	"atum/internal/workload"
)

// stepLoopRun is the multiprocessor loop System.Run had before the
// scheduler moved into package micro, kept as the oracle for
// micro.RunCores: each step picks the non-halted core with the smallest
// cycle count (ties to the lowest index), checks stop requests and the
// combined budget, and runs one Step. The machine no longer exports its
// stop flag, so stop requests are read from stops, which the test's own
// hooks set beside every RequestStop.
func stepLoopRun(cores []*micro.Machine, stops []bool, maxInstrs uint64) (micro.StopReason, error) {
	var start uint64
	for _, c := range cores {
		start += c.Instrs
	}
	for {
		var next *micro.Machine
		var executed uint64
		for _, c := range cores {
			executed += c.Instrs
			if c.Halted() {
				continue
			}
			if next == nil || c.Cycles < next.Cycles {
				next = c
			}
		}
		if next == nil {
			return micro.StopHalt, nil
		}
		for i := range cores {
			if stops[i] {
				stops[i] = false
				return micro.StopRequested, nil
			}
		}
		if maxInstrs > 0 && executed-start >= maxInstrs {
			return micro.StopInstrLimit, nil
		}
		if err := next.Step(); err != nil {
			return micro.StopHalt, err
		}
	}
}

// coreRecord is one core's state at the end of a run and a hash of
// every micro-event it fired, each with the clock when it fired.
type coreRecord struct {
	instrs, cycles uint64
	halted         bool
	cpu            micro.CPU
	stats          mmu.Stats
	flushes        [2]uint64
	events         uint64
	eventHash      uint64
}

// schedulerRun is one run of an SMP boot under one of the two loops.
type schedulerRun struct {
	sys    *kernel.System
	stops  []bool
	hashes []hash.Hash64
	counts []uint64
	run    func(maxInstrs uint64) (micro.StopReason, error)
}

// newSchedulerRun boots the 13-process mix on ncpu cores with a
// 100k-cycle timer, optionally with one collector per core spilling to
// io.Discard, and hooks every event of every core. On core 1 the hook
// requests a stop at the first exception after the core's 60,000th
// instruction, once.
func newSchedulerRun(t *testing.T, ncpu int, traced, oracle bool) *schedulerRun {
	t.Helper()
	cfg := kernel.DefaultConfig()
	cfg.ICRCycles = 100_000
	cfg.CPUs = ncpu
	sys, err := workload.BootMix(cfg, workload.Mixes["everything"]...)
	if err != nil {
		t.Fatal(err)
	}
	r := &schedulerRun{sys: sys, stops: make([]bool, ncpu)}
	if traced {
		sinks := make([]io.Writer, ncpu)
		for i := range sinks {
			sinks[i] = io.Discard
		}
		svcs, err := kernel.StartSpillCPUs(r.sys, sinks, kernel.SpillConfig{SegmentBytes: 8 << 10, Codec: trace.CodecDelta})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			for _, s := range svcs {
				s.Close()
			}
		})
	}
	for c, m := range r.sys.Cores {
		h := fnv.New64a()
		r.hashes = append(r.hashes, h)
		r.counts = append(r.counts, 0)
		var buf [24]byte
		requested := false
		for ev := micro.Event(0); ev < micro.NumEvents; ev++ {
			m.AddHook(ev, func(m *micro.Machine, a micro.Access) {
				r.counts[c]++
				buf[0], buf[1], buf[2], buf[3] = byte(a.Ev), a.Width, a.Mode, a.PID
				binary.LittleEndian.PutUint32(buf[4:], a.VA)
				binary.LittleEndian.PutUint16(buf[8:], a.Extra)
				buf[10] = 0
				if a.Phys {
					buf[10] = 1
				}
				binary.LittleEndian.PutUint64(buf[16:], m.Cycles)
				h.Write(buf[:])
				if c == 1 && a.Ev == micro.EvException && m.Instrs >= 60_000 && !requested {
					requested = true
					m.RequestStop()
					r.stops[c] = true
				}
			})
		}
	}
	if oracle {
		r.run = func(n uint64) (micro.StopReason, error) { return stepLoopRun(r.sys.Cores, r.stops, n) }
	} else {
		r.run = func(n uint64) (micro.StopReason, error) { return r.sys.Run(n) }
	}
	return r
}

func (r *schedulerRun) records() []coreRecord {
	var out []coreRecord
	for c, m := range r.sys.Cores {
		out = append(out, coreRecord{
			instrs: m.Instrs, cycles: m.Cycles, halted: m.Halted(), cpu: m.CPU,
			stats:   m.MMU.Stats,
			flushes: [2]uint64{m.MMU.TB.ProcessFlushes, m.MMU.TB.TotalFlushes},
			events:  r.counts[c], eventHash: r.hashes[c].Sum64(),
		})
	}
	return out
}

// TestRunCoresMatchesStepLoop: on 2- and 4-core boots of the mix, untraced and
// with one collector per core, micro.RunCores (System.Run's N-core
// loop) stops for the same reasons as the old loop of Step calls, and
// leaves every core in the same state with the same ordered events:
// through a budget stop partway, a hook's stop request and the run to
// halt.
func TestRunCoresMatchesStepLoop(t *testing.T) {
	for _, ncpu := range []int{2, 4} {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("cpus=%d/traced=%v", ncpu, traced), func(t *testing.T) {
				got := newSchedulerRun(t, ncpu, traced, false)
				want := newSchedulerRun(t, ncpu, traced, true)
				var reasons []micro.StopReason
				for leg, budget := range []uint64{100_000, 0, 0} {
					gr, gerr := got.run(budget)
					wr, werr := want.run(budget)
					if gr != wr || fmt.Sprint(gerr) != fmt.Sprint(werr) {
						t.Fatalf("leg %d: RunCores stopped on %v (err %v), step loop on %v (err %v)", leg, gr, gerr, wr, werr)
					}
					reasons = append(reasons, gr)
					g, w := got.records(), want.records()
					for c := range g {
						if g[c] != w[c] {
							t.Fatalf("leg %d: cpu %d: RunCores left %+v, step loop %+v", leg, c, g[c], w[c])
						}
					}
					if got.sys.Console() != want.sys.Console() {
						t.Fatalf("leg %d: consoles differ", leg)
					}
				}
				wantReasons := []micro.StopReason{micro.StopInstrLimit, micro.StopRequested, micro.StopHalt}
				if fmt.Sprint(reasons) != fmt.Sprint(wantReasons) {
					t.Errorf("stop reasons %v, want %v", reasons, wantReasons)
				}
			})
		}
	}
}
