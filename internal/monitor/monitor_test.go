package monitor

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"atum/internal/kernel"
	"atum/internal/trace"
	"atum/internal/workload"
)

func newMon(t *testing.T, loads ...string) (*Monitor, *bytes.Buffer) {
	t.Helper()
	cfg := kernel.DefaultConfig()
	cfg.Machine.MemSize = 4 << 20
	cfg.Machine.ReservedSize = 256 << 10
	sys, err := workload.BootMix(cfg, loads...)
	if err != nil {
		t.Fatal(err)
	}
	out := &bytes.Buffer{}
	return New(sys, out), out
}

func TestStepAndWhere(t *testing.T) {
	m, out := newMon(t, "sieve")
	m.Exec("step")
	s := out.String()
	if !strings.Contains(s, "[kernel pid=0]") {
		t.Errorf("step output: %q", s)
	}
	if !strings.Contains(s, "<kstart") && !strings.Contains(s, "<") {
		t.Errorf("no kernel symbol annotation: %q", s)
	}
	out.Reset()
	m.Exec("step 100")
	if !strings.Contains(out.String(), "pid=") {
		t.Errorf("step 100 output: %q", out.String())
	}
}

func TestRunToCompletion(t *testing.T) {
	m, out := newMon(t, "sieve")
	m.Exec("run")
	s := out.String()
	if !strings.Contains(s, "halted after") {
		t.Errorf("run output: %q", s)
	}
	if !strings.Contains(s, `console: "303\n"`) {
		t.Errorf("console not echoed: %q", s)
	}
	out.Reset()
	m.Exec("procs")
	if !strings.Contains(out.String(), "dead") {
		t.Errorf("procs output: %q", out.String())
	}
}

func TestBreakpointAtSyscallHandler(t *testing.T) {
	m, out := newMon(t, "sieve")
	m.Exec("break h_chmk")
	if !strings.Contains(out.String(), "breakpoint set") {
		t.Fatalf("break: %q", out.String())
	}
	out.Reset()
	m.Exec("run")
	s := out.String()
	if !strings.Contains(s, "breakpoint at") {
		t.Fatalf("breakpoint not hit: %q", s)
	}
	if !strings.Contains(s, "<h_chmk>") {
		t.Errorf("where did not show h_chmk: %q", s)
	}
	// List and delete.
	out.Reset()
	m.Exec("break")
	if !strings.Contains(out.String(), "0x") {
		t.Errorf("break list: %q", out.String())
	}
	out.Reset()
	m.Exec("delete all")
	m.Exec("break")
	if !strings.Contains(out.String(), "no breakpoints") {
		t.Errorf("delete all: %q", out.String())
	}
}

func TestExamineAndDisassemble(t *testing.T) {
	m, out := newMon(t, "sieve")
	m.Exec("examine kstart 4")
	s := out.String()
	if !strings.Contains(s, "80000000:") {
		t.Errorf("examine: %q", s)
	}
	out.Reset()
	m.Exec("dis kstart 3")
	s = out.String()
	if !strings.Contains(s, "movl") && !strings.Contains(s, "mtpr") {
		t.Errorf("dis: %q", s)
	}
	out.Reset()
	m.Exec("sym h_tnv")
	if !strings.Contains(out.String(), "h_tnv = 0x8") {
		t.Errorf("sym: %q", out.String())
	}
	out.Reset()
	m.Exec("sym nosuchthing")
	if !strings.Contains(out.String(), "undefined") {
		t.Errorf("sym miss: %q", out.String())
	}
}

func TestTracingLifecycle(t *testing.T) {
	m, out := newMon(t, "sieve")
	m.Exec("trace on")
	if !strings.Contains(out.String(), "ATUM installed") {
		t.Fatalf("trace on: %q", out.String())
	}
	out.Reset()
	m.Exec("run 5000")
	m.Exec("records 5")
	s := out.String()
	if !strings.Contains(s, "ifetch") && !strings.Contains(s, "dread") {
		t.Errorf("records: %q", s)
	}
	out.Reset()
	m.Exec("stats")
	s = out.String()
	if !strings.Contains(s, "mmu:") || !strings.Contains(s, "records:") {
		t.Errorf("stats: %q", s)
	}
	out.Reset()
	m.Exec("trace off")
	if !strings.Contains(out.String(), "removed") {
		t.Errorf("trace off: %q", out.String())
	}
	if len(m.Captured()) == 0 {
		t.Error("no records captured")
	}
}

// TestTracingSegmentedSpill runs live tracing with a deliberately tiny
// buffer so it fills many times mid-run: each fill must spill into
// the monitor's capture log and resume, and the stitched
// result must match a capture with a buffer big enough to never spill.
func TestTracingSegmentedSpill(t *testing.T) {
	capture := func(on string) (*Monitor, []trace.Word, string) {
		m, out := newMon(t, "sieve")
		m.Exec(on)
		if !strings.Contains(out.String(), "ATUM installed") {
			t.Fatalf("%q: %q", on, out.String())
		}
		m.Exec("run")
		out.Reset()
		m.Exec("trace")
		return m, m.Captured(), out.String()
	}

	// 2KB buffer = 256 records per segment; sieve generates far more.
	seg, segRecs, segStatus := capture("trace on 2")
	if seg.spills == 0 {
		t.Fatalf("tiny buffer never spilled; status %q", segStatus)
	}
	if !strings.Contains(segStatus, fmt.Sprintf("%d spills", seg.spills)) {
		t.Errorf("status does not report spills: %q", segStatus)
	}
	if seg.collector.Dropped != 0 {
		t.Errorf("spilling capture dropped %d records", seg.collector.Dropped)
	}

	// Reference: the whole reserved region per segment. Sieve overflows
	// even that, so it spills too — just far less often; what matters is
	// that the stitched captures are identical at any segment size.
	mono, monoRecs, _ := capture("trace on")
	if mono.spills >= seg.spills {
		t.Errorf("spill counts not ordered: %d (2KB) vs %d (full region)",
			seg.spills, mono.spills)
	}
	if len(segRecs) == 0 || !reflect.DeepEqual(segRecs, monoRecs) {
		t.Fatalf("segmented capture diverged: %d records vs %d reference",
			len(segRecs), len(monoRecs))
	}

	out := &bytes.Buffer{}
	seg.out = out
	seg.Exec("trace off")
	if !strings.Contains(out.String(), "0 dropped") {
		t.Errorf("trace off summary: %q", out.String())
	}
}

func TestWatchKernelCell(t *testing.T) {
	m, out := newMon(t, "sieve")
	// curproc changes the first time the scheduler picks a process...
	// it starts at nproc-1=0 and picks 0 again for a single process, so
	// watch qleft instead: the scheduler writes it on the first dispatch.
	m.Exec("watch qleft 100000")
	s := out.String()
	if !strings.Contains(s, "watch hit after") {
		t.Fatalf("watch output: %q", s)
	}
	out.Reset()
	m.Exec("watch 0x999999999") // unparseable as 32-bit... parses as uint64 then truncates? ensure error or read fail
	if out.Len() == 0 {
		t.Error("watch with bad address printed nothing")
	}
	out.Reset()
	m.Exec("watch")
	if !strings.Contains(out.String(), "usage") {
		t.Errorf("usage: %q", out.String())
	}
}

func TestWatchNoChange(t *testing.T) {
	m, out := newMon(t, "sieve")
	// The kernel never touches its own entry point instruction bytes.
	m.Exec("watch kstart 500")
	if !strings.Contains(out.String(), "no change within 500") {
		t.Errorf("watch output: %q", out.String())
	}
}

func TestLintCommand(t *testing.T) {
	m, out := newMon(t, "sieve")
	m.Exec("lint")
	if !strings.Contains(out.String(), "no records") {
		t.Errorf("lint without tracing: %q", out.String())
	}
	out.Reset()
	m.Exec("trace on")
	m.Exec("run")
	out.Reset()
	m.Exec("lint")
	if !strings.Contains(out.String(), "well-formed") {
		t.Errorf("lint: %q", out.String())
	}
}

func TestRunWithBudgetAndErrors(t *testing.T) {
	m, out := newMon(t, "sort")
	m.Exec("run 50")
	if !strings.Contains(out.String(), "budget reached") {
		t.Errorf("budget: %q", out.String())
	}
	out.Reset()
	m.Exec("bogus")
	if !strings.Contains(out.String(), "unknown command") {
		t.Errorf("unknown: %q", out.String())
	}
	out.Reset()
	m.Exec("examine not_a_symbol")
	if !strings.Contains(out.String(), "not an address") {
		t.Errorf("resolve error: %q", out.String())
	}
	out.Reset()
	m.Exec("help")
	if !strings.Contains(out.String(), "breakpoint") {
		t.Errorf("help: %q", out.String())
	}
}

func TestReplLoop(t *testing.T) {
	m, out := newMon(t, "sieve")
	in := strings.NewReader("step\nregs\nquit\n")
	if err := m.Run(in); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "dbg>") || !strings.Contains(s, "r6=") {
		t.Errorf("repl transcript: %q", s)
	}
}

func TestStatusCommand(t *testing.T) {
	m, out := newMon(t, "sieve")
	m.Exec("status")
	s := out.String()
	if !strings.Contains(s, "machine: instrs=") || !strings.Contains(s, "trace: off") {
		t.Errorf("status before tracing: %q", s)
	}

	// Once tracing is on and instructions run, the live registry must
	// show capture counters through the same path -metrics-addr serves.
	out.Reset()
	m.Exec("trace on")
	m.Exec("run 5000")
	out.Reset()
	m.Exec("status")
	s = out.String()
	if !strings.Contains(s, "trace: on") {
		t.Errorf("status while tracing: %q", s)
	}
	if !strings.Contains(s, "atum_capture_records_total") {
		t.Errorf("status output missing live registry counters: %q", s)
	}
	// Keep 'status' discoverable.
	out.Reset()
	m.Exec("help")
	if !strings.Contains(out.String(), "status") {
		t.Errorf("help does not mention status: %q", out.String())
	}
}
