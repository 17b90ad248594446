// Package monitor implements the interactive machine monitor behind
// cmd/atum-dbg: a console-processor-style debugger for the simulated
// machine. It speaks a small command language (step, breakpoints,
// memory/register examination, disassembly, live ATUM tracing) over any
// reader/writer pair, which keeps it unit-testable.
package monitor

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"atum/internal/atum"
	"atum/internal/kernel"
	"atum/internal/obs"
	"atum/internal/trace"
	"atum/internal/vax"
)

// Monitor drives one system interactively.
type Monitor struct {
	sys *kernel.System

	out io.Writer

	breaks map[uint32]bool

	collector *atum.Collector
	captured  []trace.Word
	// spills counts buffer-full extractions since tracing started: the
	// number of times the live buffer filled and was drained in place.
	spills int

	// consoleMark tracks how much simulated-console output has already
	// been echoed to the user.
	consoleMark int
}

// New wraps a booted (finalized) system.
func New(sys *kernel.System, out io.Writer) *Monitor {
	return &Monitor{sys: sys, out: out, breaks: map[uint32]bool{}}
}

// Run reads commands until EOF or "quit".
func (m *Monitor) Run(in io.Reader) error {
	sc := bufio.NewScanner(in)
	fmt.Fprintf(m.out, "atum-dbg: %d process(es) loaded; 'help' for commands\n", len(m.sys.Procs))
	for {
		fmt.Fprintf(m.out, "dbg> ")
		if !sc.Scan() {
			fmt.Fprintln(m.out)
			return sc.Err()
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if line == "quit" || line == "q" {
			return nil
		}
		m.Exec(line)
	}
}

// Exec runs a single command line.
func (m *Monitor) Exec(line string) {
	fields := strings.Fields(line)
	cmd, args := fields[0], fields[1:]
	switch cmd {
	case "help", "h", "?":
		m.help()
	case "step", "s":
		m.step(args)
	case "run", "c", "continue":
		m.run(args)
	case "regs", "r":
		m.regs()
	case "break", "b":
		m.breakCmd(args)
	case "delete":
		m.deleteCmd(args)
	case "examine", "x":
		m.examine(args)
	case "dis", "d":
		m.dis(args)
	case "sym":
		m.sym(args)
	case "where", "w":
		m.where()
	case "procs":
		m.procs()
	case "watch":
		m.watch(args)
	case "trace":
		m.trace(args)
	case "records":
		m.records(args)
	case "lint":
		m.lint()
	case "stats":
		m.stats()
	case "status":
		m.status()
	default:
		fmt.Fprintf(m.out, "unknown command %q; try 'help'\n", cmd)
	}
}

func (m *Monitor) help() {
	fmt.Fprint(m.out, `commands:
  step [n]          execute n instructions (default 1), show state
  run [n]           run until halt, breakpoint, or n instructions
  break <addr|sym>  set a breakpoint; break (no args) lists them
  delete <addr|sym|all>
  regs              register dump
  where             current PC, disassembled
  examine <a> [n]   hex-dump n longwords at address/symbol (default 8)
  dis <a> [n]       disassemble n instructions (default 8)
  sym <name>        look up a kernel symbol
  watch <a> [n]     run (up to n instructions) until the longword at the
                    address/symbol changes
  procs             process table
  trace on [bufKB]  install the ATUM collector; with bufKB, use a small
                    buffer that spills (segmented) whenever it fills
  trace off         remove the collector, keeping captured records
  records [n]       show the last n captured trace records (default 10)
  lint              check captured records for structural violations
  stats             machine and trace statistics
  status            one-line machine state plus the live metrics registry
  quit
`)
}

// resolve parses an address: hex/decimal number or kernel symbol.
func (m *Monitor) resolve(s string) (uint32, error) {
	if v, ok := m.sys.Kernel.Symbol(s); ok {
		return v, nil
	}
	v, err := strconv.ParseUint(s, 0, 32)
	if err != nil {
		return 0, fmt.Errorf("not an address or kernel symbol: %q", s)
	}
	return uint32(v), nil
}

func (m *Monitor) step(args []string) {
	n := 1
	if len(args) > 0 {
		if v, err := strconv.Atoi(args[0]); err == nil && v > 0 {
			n = v
		}
	}
	for i := 0; i < n; i++ {
		if m.sys.M.Halted() {
			fmt.Fprintln(m.out, "machine halted")
			break
		}
		if err := m.sys.M.Step(); err != nil {
			fmt.Fprintf(m.out, "machine check: %v\n", err)
			break
		}
	}
	m.flushConsole()
	m.where()
}

func (m *Monitor) run(args []string) {
	budget := uint64(0)
	if len(args) > 0 {
		if v, err := strconv.ParseUint(args[0], 0, 64); err == nil {
			budget = v
		}
	}
	executed := uint64(0)
	for {
		if m.sys.M.Halted() {
			fmt.Fprintf(m.out, "halted after %d instructions\n", executed)
			break
		}
		if budget > 0 && executed >= budget {
			fmt.Fprintf(m.out, "budget reached (%d instructions)\n", executed)
			break
		}
		if err := m.sys.M.Step(); err != nil {
			fmt.Fprintf(m.out, "machine check: %v\n", err)
			break
		}
		executed++
		if m.breaks[m.sys.M.CPU.R[vax.PC]] {
			fmt.Fprintf(m.out, "breakpoint at %#x after %d instructions\n",
				m.sys.M.CPU.R[vax.PC], executed)
			break
		}
	}
	m.flushConsole()
	m.where()
}

func (m *Monitor) flushConsole() {
	c := m.sys.Console()
	if len(c) > m.consoleMark {
		fmt.Fprintf(m.out, "console: %q\n", c[m.consoleMark:])
		m.consoleMark = len(c)
	}
}

func (m *Monitor) regs() {
	fmt.Fprintln(m.out, m.sys.M.State())
	c := &m.sys.M.CPU
	fmt.Fprintf(m.out, "r6=%08x r7=%08x r8=%08x r9=%08x r10=%08x r11=%08x\n",
		c.R[6], c.R[7], c.R[8], c.R[9], c.R[10], c.R[11])
}

func (m *Monitor) breakCmd(args []string) {
	if len(args) == 0 {
		if len(m.breaks) == 0 {
			fmt.Fprintln(m.out, "no breakpoints")
			return
		}
		addrs := make([]uint32, 0, len(m.breaks))
		for a := range m.breaks {
			addrs = append(addrs, a)
		}
		sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
		for _, a := range addrs {
			fmt.Fprintf(m.out, "  %#x\n", a)
		}
		return
	}
	a, err := m.resolve(args[0])
	if err != nil {
		fmt.Fprintln(m.out, err)
		return
	}
	m.breaks[a] = true
	fmt.Fprintf(m.out, "breakpoint set at %#x\n", a)
}

func (m *Monitor) deleteCmd(args []string) {
	if len(args) == 0 {
		fmt.Fprintln(m.out, "usage: delete <addr|sym|all>")
		return
	}
	if args[0] == "all" {
		m.breaks = map[uint32]bool{}
		fmt.Fprintln(m.out, "all breakpoints deleted")
		return
	}
	a, err := m.resolve(args[0])
	if err != nil {
		fmt.Fprintln(m.out, err)
		return
	}
	delete(m.breaks, a)
	fmt.Fprintf(m.out, "deleted %#x\n", a)
}

func (m *Monitor) examine(args []string) {
	if len(args) == 0 {
		fmt.Fprintln(m.out, "usage: examine <addr|sym> [nlongs]")
		return
	}
	a, err := m.resolve(args[0])
	if err != nil {
		fmt.Fprintln(m.out, err)
		return
	}
	n := 8
	if len(args) > 1 {
		if v, err := strconv.Atoi(args[1]); err == nil && v > 0 {
			n = v
		}
	}
	for i := 0; i < n; i++ {
		va := a + uint32(4*i)
		if i%4 == 0 {
			if i > 0 {
				fmt.Fprintln(m.out)
			}
			fmt.Fprintf(m.out, "%08x:", va)
		}
		v, err := m.sys.M.DebugRead(va, 4)
		if err != nil {
			fmt.Fprintf(m.out, " ????????")
			continue
		}
		fmt.Fprintf(m.out, " %08x", v)
	}
	fmt.Fprintln(m.out)
}

func (m *Monitor) dis(args []string) {
	a := m.sys.M.CPU.R[vax.PC]
	if len(args) > 0 {
		v, err := m.resolve(args[0])
		if err != nil {
			fmt.Fprintln(m.out, err)
			return
		}
		a = v
	}
	n := 8
	if len(args) > 1 {
		if v, err := strconv.Atoi(args[1]); err == nil && v > 0 {
			n = v
		}
	}
	// Read a window of bytes through the debug path.
	buf := make([]byte, 16*n)
	for i := range buf {
		v, err := m.sys.M.DebugRead(a+uint32(i), 1)
		if err != nil {
			buf = buf[:i]
			break
		}
		buf[i] = byte(v)
	}
	lines := vax.Disassemble(buf, a)
	if len(lines) > n {
		lines = lines[:n]
	}
	for _, l := range lines {
		fmt.Fprintln(m.out, l)
	}
}

func (m *Monitor) sym(args []string) {
	if len(args) == 0 {
		fmt.Fprintln(m.out, "usage: sym <name>")
		return
	}
	if v, ok := m.sys.Kernel.Symbol(args[0]); ok {
		fmt.Fprintf(m.out, "%s = %#x\n", args[0], v)
	} else {
		fmt.Fprintf(m.out, "undefined: %s\n", args[0])
	}
}

func (m *Monitor) where() {
	pc := m.sys.M.CPU.R[vax.PC]
	buf := make([]byte, 16)
	for i := range buf {
		v, err := m.sys.M.DebugRead(pc+uint32(i), 1)
		if err != nil {
			buf = buf[:i]
			break
		}
		buf[i] = byte(v)
	}
	mode := "user"
	if vax.CurMode(m.sys.M.CPU.PSL) == vax.ModeKernel {
		mode = "kernel"
	}
	loc := m.nearestSymbol(pc)
	if len(buf) > 0 {
		if d, err := vax.DecodeBytes(buf, pc); err == nil {
			fmt.Fprintf(m.out, "[%s pid=%d] %08x%s:\t%s\n", mode, m.sys.M.CurPID, pc, loc, d)
			return
		}
	}
	fmt.Fprintf(m.out, "[%s pid=%d] pc=%08x%s (undecodable)\n", mode, m.sys.M.CurPID, pc, loc)
}

// nearestSymbol renders " <sym+off>" for kernel addresses.
func (m *Monitor) nearestSymbol(pc uint32) string {
	if pc < kernel.KVBase {
		return ""
	}
	bestName, bestVal := "", uint32(0)
	for name, v := range m.sys.Kernel.Symbols {
		if v <= pc && v >= bestVal {
			bestName, bestVal = name, v
		}
	}
	if bestName == "" {
		return ""
	}
	if off := pc - bestVal; off != 0 {
		return fmt.Sprintf(" <%s+%d>", bestName, off)
	}
	return fmt.Sprintf(" <%s>", bestName)
}

func (m *Monitor) procs() {
	for _, p := range m.sys.Procs {
		st, err := m.sys.State(p)
		if err != nil {
			fmt.Fprintf(m.out, "pid %d: %v\n", p.PID, err)
			continue
		}
		status := map[kernel.ProcState]string{
			kernel.ProcFree: "free", kernel.ProcRunnable: "runnable",
			kernel.ProcDead: "dead", kernel.ProcNapping: "napping",
			kernel.ProcPipeWrite: "pipe-write", kernel.ProcPipeRead: "pipe-read",
		}[st]
		extra := ""
		if st == kernel.ProcDead {
			ex, _ := m.sys.ExitStatus(p)
			extra = fmt.Sprintf(" exit=%#x", ex)
		}
		fmt.Fprintf(m.out, "pid %-2d %-12s %s%s\n", p.PID, p.Name, status, extra)
	}
}

// watch executes until the longword at the given location changes value
// (a poor man's hardware watchpoint: the monitor re-reads after every
// instruction, which is exactly what a console processor would do).
func (m *Monitor) watch(args []string) {
	if len(args) == 0 {
		fmt.Fprintln(m.out, "usage: watch <addr|sym> [maxInstructions]")
		return
	}
	a, err := m.resolve(args[0])
	if err != nil {
		fmt.Fprintln(m.out, err)
		return
	}
	budget := uint64(1_000_000)
	if len(args) > 1 {
		if v, err := strconv.ParseUint(args[1], 0, 64); err == nil && v > 0 {
			budget = v
		}
	}
	old, err := m.sys.M.DebugRead(a, 4)
	if err != nil {
		fmt.Fprintf(m.out, "cannot read %#x: %v\n", a, err)
		return
	}
	for n := uint64(0); n < budget; n++ {
		if m.sys.M.Halted() {
			fmt.Fprintln(m.out, "machine halted")
			m.flushConsole()
			return
		}
		if err := m.sys.M.Step(); err != nil {
			fmt.Fprintf(m.out, "machine check: %v\n", err)
			return
		}
		now, err := m.sys.M.DebugRead(a, 4)
		if err != nil {
			fmt.Fprintf(m.out, "location became unreadable: %v\n", err)
			return
		}
		if now != old {
			fmt.Fprintf(m.out, "watch hit after %d instructions: [%#x] %#x -> %#x\n",
				n+1, a, old, now)
			m.flushConsole()
			m.where()
			return
		}
	}
	fmt.Fprintf(m.out, "no change within %d instructions\n", budget)
	m.flushConsole()
}

func (m *Monitor) trace(args []string) {
	if len(args) == 0 {
		state := "off"
		if m.collector != nil {
			state = fmt.Sprintf("on (%d buffered, %d captured, %d spills)",
				m.collector.BufferedRecords(), len(m.captured), m.spills)
		}
		fmt.Fprintf(m.out, "trace: %s\n", state)
		return
	}
	switch args[0] {
	case "on":
		if m.collector != nil {
			fmt.Fprintln(m.out, "already tracing")
			return
		}
		opts := atum.DefaultOptions()
		if len(args) > 1 {
			kb, err := strconv.ParseUint(args[1], 0, 32)
			if err != nil || kb == 0 {
				fmt.Fprintf(m.out, "bad buffer size %q (KB)\n", args[1])
				return
			}
			opts.BufBytes = uint32(kb) << 10
		}
		// Segmented live tracing: spill the buffer into the monitor's
		// capture log every time it fills, exactly like the kernel spill
		// service — extraction takes no machine time, so the fill is
		// loss-free and the run resumes.
		opts.OnFull = func(c *atum.Collector) {
			recs, err := c.Extract()
			if err == nil {
				m.captured = append(m.captured, recs...)
				m.spills++
			}
		}
		col, err := atum.Install(m.sys.M, opts)
		if err != nil {
			fmt.Fprintln(m.out, err)
			return
		}
		m.collector = col
		fmt.Fprintln(m.out, "ATUM installed")
	case "off":
		if m.collector == nil {
			fmt.Fprintln(m.out, "not tracing")
			return
		}
		recs, err := m.collector.Extract()
		if err == nil {
			m.captured = append(m.captured, recs...)
		}
		dropped := m.collector.Dropped
		m.collector.Uninstall()
		m.collector = nil
		fmt.Fprintf(m.out, "ATUM removed; %d records captured in total (%d spills, %d dropped)\n",
			len(m.captured), m.spills, dropped)
	default:
		fmt.Fprintln(m.out, "usage: trace on|off")
	}
}

// Captured returns everything collected so far (draining the buffer).
func (m *Monitor) Captured() []trace.Word {
	if m.collector != nil {
		recs, err := m.collector.Extract()
		if err == nil {
			m.captured = append(m.captured, recs...)
		}
	}
	return m.captured
}

func (m *Monitor) records(args []string) {
	n := 10
	if len(args) > 0 {
		if v, err := strconv.Atoi(args[0]); err == nil && v > 0 {
			n = v
		}
	}
	recs := m.Captured()
	if len(recs) == 0 {
		fmt.Fprintln(m.out, "no records (is tracing on?)")
		return
	}
	start := len(recs) - n
	if start < 0 {
		start = 0
	}
	for _, r := range recs[start:] {
		fmt.Fprintln(m.out, r)
	}
}

func (m *Monitor) lint() {
	recs := m.Captured()
	if len(recs) == 0 {
		fmt.Fprintln(m.out, "no records (is tracing on?)")
		return
	}
	violations := trace.Lint(recs)
	if len(violations) == 0 {
		fmt.Fprintf(m.out, "lint: %d records, well-formed\n", len(recs))
		return
	}
	for _, v := range violations {
		fmt.Fprintln(m.out, "lint:", v)
	}
}

func (m *Monitor) stats() {
	mach := m.sys.M
	fmt.Fprintf(m.out, "instructions: %d  cycles: %d  pid: %d\n",
		mach.Instrs, mach.Cycles, mach.CurPID)
	st := mach.MMU.Stats
	fmt.Fprintf(m.out, "mmu: accesses=%d tb-hits=%d tb-misses=%d pte-reads=%d faults=%d\n",
		st.Accesses, st.TBHits, st.TBMisses, st.PTEReads, st.Faults)
	r, w := mach.DiskStats()
	fmt.Fprintf(m.out, "swap: reads=%d writes=%d\n", r, w)
	if len(m.Captured()) > 0 || m.collector != nil {
		fmt.Fprint(m.out, trace.Summarize(m.Captured()))
	}
}

// status prints a one-line machine summary followed by the process-wide
// metrics registry — the same counters -metrics-addr serves over HTTP,
// so a debugger session can inspect capture/spill/decode telemetry
// without standing up the server.
func (m *Monitor) status() {
	mach := m.sys.M
	tracing := "off"
	if m.collector != nil {
		tracing = fmt.Sprintf("on (%d buffered, %d dropped)",
			m.collector.BufferedRecords(), m.collector.Dropped)
	}
	fmt.Fprintf(m.out, "machine: instrs=%d cycles=%d pid=%d halted=%v  trace: %s\n",
		mach.Instrs, mach.Cycles, mach.CurPID, mach.Halted(), tracing)
	// When a streaming pipeline is attached to the capture, summarise its
	// progress on one line ahead of the raw registry dump. Peek, don't
	// create: a session without a pipeline should not grow stream metrics.
	if segs, ok := obs.Default().PeekCounter("atum_stream_segments_total"); ok {
		recs, _ := obs.Default().PeekCounter("atum_stream_records_total")
		rate, _ := obs.Default().PeekGauge("atum_stream_replay_rate_recs_per_sec")
		fmt.Fprintf(m.out, "stream: segments=%d records=%d rate=%.0f recs/s\n", segs, recs, rate)
	}
	text := obs.Default().String()
	if text == "" {
		fmt.Fprintln(m.out, "metrics: registry empty (nothing instrumented yet)")
		return
	}
	fmt.Fprint(m.out, text)
}
