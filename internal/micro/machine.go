// Package micro implements the simulated machine: a VAX-subset CPU whose
// instructions execute as microroutines dispatched from a mutable
// microstore, over the mmu and mem substrates.
//
// The design mirrors what made ATUM possible on the VAX 8200: every
// architectural event — instruction-buffer refill, operand read/write,
// page-table reference, exception dispatch, context switch — funnels
// through a small set of micro-event points, and the microstore itself is
// writable. internal/atum installs its tracing by hooking those points
// and swapping microroutines, exactly as the original patched the 8200's
// control store; nothing above this layer (kernel or user code) can tell
// tracing is on, except that the machine runs slower.
package micro

import (
	"fmt"
	"slices"

	"atum/internal/mem"
	"atum/internal/mmu"
	"atum/internal/vax"
)

// Event identifies a micro-event class that hooks can observe.
type Event uint8

const (
	EvIFetch    Event = iota // instruction-buffer refill (aligned longword)
	EvDRead                  // data read
	EvDWrite                 // data write
	EvPTERead                // page-table entry read by translation microcode
	EvPTEWrite               // PTE modify-bit write by translation microcode
	EvCtxSwitch              // LDPCTX completed; Extra = incoming PID
	EvException              // exception/interrupt dispatch; Extra = SCB vector
	NumEvents
)

func (e Event) String() string {
	switch e {
	case EvIFetch:
		return "ifetch"
	case EvDRead:
		return "dread"
	case EvDWrite:
		return "dwrite"
	case EvPTERead:
		return "pteread"
	case EvPTEWrite:
		return "ptewrite"
	case EvCtxSwitch:
		return "ctxswitch"
	case EvException:
		return "exception"
	}
	return fmt.Sprintf("Event(%d)", uint8(e))
}

// Access describes one micro-event occurrence.
type Access struct {
	Ev    Event
	VA    uint32 // virtual address (physical when Phys is set)
	Width uint8  // reference width in bytes
	Mode  uint8  // vax.ModeKernel or vax.ModeUser at the time of access
	PID   uint8  // current process id
	Phys  bool   // address is physical (system PTE refs, PCB refs)
	Extra uint16 // vector (exception) or incoming PID (context switch)
}

// Hook observes micro-events. Hooks run synchronously inside the
// microcycle that generated the event and may charge extra cycles via
// Machine.ChargeCycles — that is how tracing overhead becomes measurable
// dilation.
type Hook func(m *Machine, a Access)

// CostModel holds the microcycle costs of the memory system and
// exception microcode. Instruction base costs live in the opcode table.
type CostModel struct {
	IFetchRefill uint32
	DataRead     uint32
	DataWrite    uint32
	PTERead      uint32
	PTEWrite     uint32
	Exception    uint32
	CtxSwitch    uint32
}

// DefaultCosts approximates a microcoded mid-1980s minicomputer.
func DefaultCosts() CostModel {
	return CostModel{
		IFetchRefill: 2,
		DataRead:     2,
		DataWrite:    2,
		PTERead:      3,
		PTEWrite:     3,
		Exception:    16,
		CtxSwitch:    24,
	}
}

// Config parameterises machine construction.
type Config struct {
	MemSize      uint32 // physical memory bytes (page multiple)
	ReservedSize uint32 // trace region bytes at top of memory
	TBEntries    int    // hardware translation-buffer entries (power of two)
	Costs        CostModel
}

// DefaultConfig returns the standard 8 MB machine with a 512 KB reserved
// trace region (the paper reserved about half a megabyte) and a
// 512-entry TB.
func DefaultConfig() Config {
	return Config{
		MemSize:      8 << 20,
		ReservedSize: 512 << 10,
		TBEntries:    512,
		Costs:        DefaultCosts(),
	}
}

// StopReason reports why Run returned.
type StopReason int

const (
	StopHalt       StopReason = iota // HALT executed in kernel mode
	StopInstrLimit                   // instruction budget exhausted
	StopRequested                    // a hook called RequestStop
)

func (r StopReason) String() string {
	switch r {
	case StopHalt:
		return "halt"
	case StopInstrLimit:
		return "instruction limit"
	case StopRequested:
		return "stop requested"
	}
	return fmt.Sprintf("StopReason(%d)", int(r))
}

// MachineCheck is a fatal simulation error: the software below the trap
// handlers (kernel or microcode model) did something unrecoverable, e.g.
// faulted while dispatching an exception.
type MachineCheck struct {
	PC     uint32
	Reason string
}

func (e *MachineCheck) Error() string {
	return fmt.Sprintf("machine check at pc=%#x: %s", e.PC, e.Reason)
}

// CPU is the architectural register state.
type CPU struct {
	R   [16]uint32
	PSL uint32

	// Banked stack pointers. R[SP] always holds the active one; these
	// hold the inactive modes' values.
	KSP, USP uint32
}

// Machine is the simulated computer.
type Machine struct {
	Mem *mem.Physical
	MMU *mmu.Unit
	CPU CPU

	Microstore Microstore

	Costs CostModel

	// Privileged register state.
	PCBB, SCBB uint32
	SISR       uint16 // software interrupt summary (bits 1..15)
	ICCS       uint32 // bit 6 = run/interrupt enable
	ICR        uint32 // microcycles per interval-timer tick

	CurPID uint8

	// CPUID identifies this processor on an SMP machine (0 on a
	// uniprocessor); MFPR PrCPUID reads it. TBPeers lists the sibling
	// cores' translation buffers: MTPR to TBIA/TBIS broadcasts the
	// invalidate to them, modelling a hardware shootdown bus, while
	// context-local invalidations (LDPCTX, base-register writes) stay
	// on this core's TB.
	CPUID   uint8
	TBPeers []*mmu.Unit

	// Clocks and counters.
	Cycles   uint64
	Instrs   uint64
	nextTick uint64

	halted      bool
	stopRequest bool

	hooks [NumEvents][]*hookEntry

	// Per-instruction state for restartable faults.
	instrPC  uint32 // address of current instruction's opcode
	savedCC  uint32 // PSL condition codes at instruction start
	undoLog  []regDelta
	inExcept bool // dispatching an exception (nested fault = machine check)

	// Instruction prefetch buffer: one aligned longword, little-endian,
	// tagged with its address ORed with ibufValid (zero when empty).
	ibuf    uint32
	ibufTag uint32

	pendingTimer bool

	disk disk
}

type regDelta struct {
	reg byte
	old uint32
}

// New constructs a machine. Mapping starts disabled; memory and registers
// are zero; the microstore holds the stock microroutines.
func New(cfg Config) (*Machine, error) {
	phys, err := mem.NewPhysical(cfg.MemSize, cfg.ReservedSize)
	if err != nil {
		return nil, err
	}
	return newOn(cfg, phys, &diskStore{blocks: make(map[uint32][]byte)}), nil
}

// NewOnMemory constructs an additional processor of an SMP machine: a
// full CPU (own registers, MMU/TB, microstore, clocks) sharing the
// given physical memory and the primary's swap disk. Each core has its
// own microstore, so tracing microcode is installed per CPU — exactly
// the per-processor patching the paper's successors needed for
// multiprocessor ATUM.
func NewOnMemory(cfg Config, primary *Machine) *Machine {
	return newOn(cfg, primary.Mem, primary.disk.store)
}

func newOn(cfg Config, phys *mem.Physical, store *diskStore) *Machine {
	if cfg.TBEntries == 0 {
		cfg.TBEntries = 512
	}
	m := &Machine{
		Mem:   phys,
		MMU:   mmu.New(phys, cfg.TBEntries),
		Costs: cfg.Costs,
	}
	m.disk.store = store
	m.MMU.Obs = (*mmuObserver)(m)
	m.Microstore.loadStock()
	m.CPU.PSL = uint32(vax.ModeKernel) << vax.PSLCurModShift
	return m
}

// mmuObserver adapts the machine to mmu.Observer without exporting the
// methods on Machine itself.
type mmuObserver Machine

func (o *mmuObserver) PTERead(addr uint32, virt bool) {
	m := (*Machine)(o)
	m.Cycles += uint64(m.Costs.PTERead)
	m.fire(Access{Ev: EvPTERead, VA: addr, Width: 4, Mode: m.mode(), PID: m.CurPID, Phys: !virt})
}

func (o *mmuObserver) PTEWrite(addr uint32, virt bool) {
	m := (*Machine)(o)
	m.Cycles += uint64(m.Costs.PTEWrite)
	m.fire(Access{Ev: EvPTEWrite, VA: addr, Width: 4, Mode: m.mode(), PID: m.CurPID, Phys: !virt})
}

// hookEntry is one registration on the hook bus. Removal clears h, so
// a fire already walking the list skips it even after the list itself
// has been replaced.
type hookEntry struct{ h Hook }

// AddHook registers a hook for an event class and returns a function that
// removes it. Hooks run in installation order.
func (m *Machine) AddHook(ev Event, h Hook) (remove func()) {
	e := &hookEntry{h: h}
	m.hooks[ev] = append(m.hooks[ev], e)
	return func() {
		if e.h == nil {
			return
		}
		e.h = nil
		// Compact into a fresh array: a fire in progress keeps walking
		// the old one undisturbed, and later events walk live hooks only.
		m.hooks[ev] = slices.DeleteFunc(slices.Clone(m.hooks[ev]), func(x *hookEntry) bool { return x == e })
	}
}

func (m *Machine) fire(a Access) {
	for _, e := range m.hooks[a.Ev] {
		if e.h != nil {
			e.h(m, a)
		}
	}
}

// ChargeCycles adds n microcycles to the clock; hooks use it to make
// their overhead visible in measured time.
func (m *Machine) ChargeCycles(n uint32) { m.Cycles += uint64(n) }

// RequestStop asks the run loop to return after the current instruction.
func (m *Machine) RequestStop() { m.stopRequest = true }

// Halted reports whether the machine executed HALT.
func (m *Machine) Halted() bool { return m.halted }

func (m *Machine) mode() uint8 { return uint8(vax.CurMode(m.CPU.PSL)) }

func (m *Machine) userMode() bool { return vax.CurMode(m.CPU.PSL) == vax.ModeUser }

// trap is the internal exception carrier (panic/recover within Step).
type trap struct {
	vector  uint16
	params  []uint32
	restart bool // fault: push instruction-start PC (else next PC)
}

// raise throws an exception out of microroutine code.
func raise(vector uint16, restart bool, params ...uint32) {
	panic(&trap{vector: vector, params: params, restart: restart})
}

// Step executes one instruction (possibly preceded by an interrupt
// dispatch). It returns a MachineCheck error for unrecoverable faults.
// The monitor single-steps with it; Run and RunCores loop over step
// under one handler of their own.
func (m *Machine) Step() (err error) {
	if m.halted {
		return &MachineCheck{PC: m.CPU.R[vax.PC], Reason: "step after halt"}
	}
	defer func() {
		if r := recover(); r != nil {
			err = m.deliverRecovered(r)
		}
	}()
	return m.step()
}

// step executes one instruction, or dispatches one pending interrupt
// instead. A trap the instruction raises panics through to the caller,
// whose deferred handler passes it to deliverRecovered.
func (m *Machine) step() error {
	m.pollTimer()
	if (m.pendingTimer || m.SISR != 0) && m.takeInterrupt() {
		return nil
	}

	m.instrPC = m.CPU.R[vax.PC]
	m.savedCC = m.CPU.PSL & (vax.PSLN | vax.PSLZ | vax.PSLV | vax.PSLC)
	m.undoLog = m.undoLog[:0]
	traceBit := m.CPU.PSL&vax.PSLT != 0

	opc := m.fetchByte()
	routine := m.Microstore.Lookup(opc)
	if routine == nil {
		raise(vax.VecReserved, true)
	}
	if routine.Priv && m.userMode() {
		raise(vax.VecReserved, true)
	}
	m.Cycles += uint64(routine.Cost)
	routine.Exec(m)
	m.Instrs++

	if traceBit && !m.halted {
		// T-bit trace trap after the instruction completes.
		return m.deliver(&trap{vector: vax.VecTraceTrap})
	}
	return nil
}

// deliverRecovered delivers the trap a step panicked with, given the
// value recover returned. Any other panic is raised again.
func (m *Machine) deliverRecovered(r any) error {
	t, ok := r.(*trap)
	if !ok {
		panic(r)
	}
	return m.deliver(t)
}

// deliver performs the exception microroutine for t. Faulting inside
// delivery is a machine check.
func (m *Machine) deliver(t *trap) error {
	if m.inExcept {
		m.halted = true
		return &MachineCheck{PC: m.instrPC, Reason: "exception during exception dispatch (vector " + fmt.Sprintf("%#x", t.vector) + ")"}
	}
	m.inExcept = true
	defer func() { m.inExcept = false }()

	// Restore pre-instruction state for restartable faults.
	pushPC := m.CPU.R[vax.PC]
	if t.restart {
		for i := len(m.undoLog) - 1; i >= 0; i-- {
			d := m.undoLog[i]
			m.CPU.R[d.reg] = d.old
		}
		m.CPU.PSL = m.CPU.PSL&^(vax.PSLN|vax.PSLZ|vax.PSLV|vax.PSLC) | m.savedCC
		pushPC = m.instrPC
	}

	oldPSL := m.CPU.PSL

	// Read the handler address from the SCB (physical).
	handler, err := m.Mem.Load32(m.SCBB + uint32(t.vector))
	if err != nil || handler == 0 {
		m.halted = true
		return &MachineCheck{PC: m.instrPC, Reason: fmt.Sprintf("no SCB handler for vector %#x", t.vector)}
	}

	// Switch to kernel mode.
	m.setMode(vax.ModeKernel)
	m.CPU.PSL = m.CPU.PSL&^(vax.PSLPrvModMask|vax.PSLT) |
		(uint32(vax.CurMode(oldPSL)) << vax.PSLPrvModShift)

	// Push PSL, PC, then parameters (params end up lowest, at (SP)).
	ok := func() (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				if _, isTrap := r.(*trap); isTrap {
					ok = false
					return
				}
				panic(r)
			}
		}()
		m.push(oldPSL)
		m.push(pushPC)
		for i := len(t.params) - 1; i >= 0; i-- {
			m.push(t.params[i])
		}
		return true
	}()
	if !ok {
		m.halted = true
		return &MachineCheck{PC: m.instrPC, Reason: "kernel stack not valid"}
	}

	m.CPU.R[vax.PC] = handler
	m.flushIBuf()
	m.Cycles += uint64(m.Costs.Exception)
	m.fire(Access{Ev: EvException, VA: pushPC, Mode: m.mode(), PID: m.CurPID, Extra: t.vector})
	return nil
}

// setMode banks the stack pointer and changes the current mode field.
func (m *Machine) setMode(newMode int) {
	cur := vax.CurMode(m.CPU.PSL)
	if cur == newMode {
		return
	}
	switch cur {
	case vax.ModeKernel:
		m.CPU.KSP = m.CPU.R[vax.SP]
	case vax.ModeUser:
		m.CPU.USP = m.CPU.R[vax.SP]
	}
	switch newMode {
	case vax.ModeKernel:
		m.CPU.R[vax.SP] = m.CPU.KSP
	case vax.ModeUser:
		m.CPU.R[vax.SP] = m.CPU.USP
	}
	m.CPU.PSL = m.CPU.PSL&^vax.PSLCurModMask | uint32(newMode)<<vax.PSLCurModShift
}

// pollTimer latches a pending interval-timer interrupt when due.
func (m *Machine) pollTimer() {
	if m.ICCS&(1<<6) == 0 || m.ICR == 0 {
		return
	}
	if m.nextTick == 0 {
		m.nextTick = m.Cycles + uint64(m.ICR)
	}
	if m.Cycles >= m.nextTick {
		m.pendingTimer = true
		m.nextTick += uint64(m.ICR)
		if m.nextTick <= m.Cycles {
			m.nextTick = m.Cycles + uint64(m.ICR)
		}
	}
}

// takeInterrupt dispatches the highest-priority pending interrupt above
// the current IPL. Returns true if one was dispatched.
func (m *Machine) takeInterrupt() bool {
	cur := vax.IPL(m.CPU.PSL)
	if m.pendingTimer && vax.IPLTimer > cur {
		m.pendingTimer = false
		m.dispatchInterrupt(vax.VecIntervalTimer, vax.IPLTimer)
		return true
	}
	if m.SISR != 0 {
		// Highest set software level.
		for lvl := 15; lvl >= 1; lvl-- {
			if m.SISR&(1<<lvl) != 0 {
				if lvl <= cur {
					return false
				}
				m.SISR &^= 1 << lvl
				m.dispatchInterrupt(uint16(0x80+4*lvl), lvl)
				return true
			}
		}
	}
	return false
}

func (m *Machine) dispatchInterrupt(vector uint16, ipl int) {
	err := m.deliver(&trap{vector: vector})
	if err == nil {
		m.CPU.PSL = m.CPU.PSL&^vax.PSLIPLMask | uint32(ipl)<<vax.PSLIPLShift
	}
}

// Run executes instructions until HALT, the instruction budget is
// exhausted, or a hook requests a stop.
func (m *Machine) Run(maxInstrs uint64) (StopReason, error) {
	start := m.Instrs
	for {
		if stop, reason, err := m.runUntilTrap(start, maxInstrs); stop {
			return reason, err
		}
	}
}

// runUntilTrap is Run's loop between traps. Its one deferred handler
// delivers a trap and returns with stop false, and Run enters the loop
// again, so the handler is set up once per trap, not once per
// instruction.
func (m *Machine) runUntilTrap(start, maxInstrs uint64) (stop bool, reason StopReason, err error) {
	defer func() {
		if r := recover(); r != nil {
			if err = m.deliverRecovered(r); err != nil {
				stop, reason = true, StopHalt
			}
		}
	}()
	for {
		if m.halted {
			return true, StopHalt, nil
		}
		if m.stopRequest {
			m.stopRequest = false
			return true, StopRequested, nil
		}
		if maxInstrs > 0 && m.Instrs-start >= maxInstrs {
			return true, StopInstrLimit, nil
		}
		if err := m.step(); err != nil {
			return true, StopHalt, err
		}
	}
}

// RunCores runs the processors of a multiprocessor for at most
// maxInstrs instructions across all of them (0 = unlimited). It returns
// when every core has halted, a hook on any core requests a stop, or the
// budget is exhausted.
//
// The cores are interleaved by a deterministic rule: each step executes
// the non-halted core with the smallest cycle count (ties to the lowest
// index), the discrete-event equivalent of cores running at the same
// clock rate. Stop requests and the budget are checked before every
// step. One instruction at a time on one goroutine makes memory
// sequentially consistent and every instruction atomic, and makes an
// N-core run a pure function of its start state.
func RunCores(cores []*Machine, maxInstrs uint64) (StopReason, error) {
	var start uint64
	for _, c := range cores {
		start += c.Instrs
	}
	for {
		if stop, reason, err := runCoresUntilTrap(cores, start, maxInstrs); stop {
			return reason, err
		}
	}
}

// runCoresUntilTrap is RunCores' loop between traps, with one deferred
// handler as in runUntilTrap.
func runCoresUntilTrap(cores []*Machine, start, maxInstrs uint64) (stop bool, reason StopReason, err error) {
	var next *Machine
	defer func() {
		if r := recover(); r != nil {
			if err = next.deliverRecovered(r); err != nil {
				stop, reason = true, StopHalt
			}
		}
	}()
	for {
		next = nil
		var executed uint64
		for _, c := range cores {
			executed += c.Instrs
			if c.halted {
				continue
			}
			if next == nil || c.Cycles < next.Cycles {
				next = c
			}
		}
		if next == nil {
			return true, StopHalt, nil
		}
		for _, c := range cores {
			if c.stopRequest {
				c.stopRequest = false
				return true, StopRequested, nil
			}
		}
		if maxInstrs > 0 && executed-start >= maxInstrs {
			return true, StopInstrLimit, nil
		}
		if err := next.step(); err != nil {
			return true, StopHalt, err
		}
	}
}
