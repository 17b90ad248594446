package micro

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"testing"

	"atum/internal/mmu"
	"atum/internal/vax"
)

// The fuzzed machine: 64 KB of RAM, mapping on.
//
//	phys 0x0000  SCB; every vector points at a handler on the next page
//	phys 0x0200  handlers, S0 va 0x80000200
//	phys 0x0400  system page table: S0 pages 0-63 map frames 0-63, KW
//	phys 0x0800  P0 page table, S0 va 0x80000800: P0 pages 0-15 map
//	             frames 32-47 with the protections in fuzzP0Prot
//	phys 0x2000  top of the kernel stack, S0 va 0x80002000
//
// The code runs from P0 va fuzzCodeVA, on two user-writable pages; the
// user stack tops out at P0 va 0x2000. Every PTE starts with its modify
// bit clear, so each page's first write takes the modify-bit path.
const (
	fuzzMachineMem = 64 << 10
	fuzzSPT        = 0x400
	fuzzP0PT       = 0x800
	fuzzCodeVA     = 0x10
	fuzzCodeMax    = 2*512 - fuzzCodeVA
	fuzzKSP        = 0x80002000
	fuzzUSP        = 0x2000
)

// fuzzP0Prot is the protection of each P0 page; 0 leaves it invalid.
var fuzzP0Prot = [16]uint32{
	mmu.ProtUW, mmu.ProtUW, // code
	mmu.ProtUR, mmu.ProtKW, 0, mmu.ProtUW, mmu.ProtURKR, mmu.ProtKR,
	mmu.ProtUW, mmu.ProtUR, 0, mmu.ProtKW,
	mmu.ProtUW, mmu.ProtUW, mmu.ProtUW, mmu.ProtUW, // user stack
}

// fuzzHandlers are the exception and interrupt handlers, one per
// parameter count. A fault handler steps the saved PC one byte past
// the faulting opcode, so execution goes on over arbitrary bytes
// instead of restarting the same fault until the budget runs out.
const fuzzHandlers = `
	.org	0x80000200
h0:	rei
h0skip:	incl	(sp)
	rei
h1:	tstl	(sp)+
	rei
h2:	addl2	#8, sp
	incl	(sp)
	rei
`

// fuzzVectorHandler names the handler each SCB vector gets.
func fuzzVectorHandler(vec uint16) string {
	switch vec {
	case vax.VecMachineCheck, vax.VecReserved:
		return "h0skip"
	case vax.VecAccessViolation, vax.VecTranslationNotValid:
		return "h2"
	case vax.VecArithmetic, vax.VecCHMK:
		return "h1"
	}
	return "h0"
}

// fuzzMachine builds the fuzzed machine with code at fuzzCodeVA, in
// user or kernel mode. regs seeds R0-R13 (four bytes each, little
// endian; missing ones point into the P0 data pages). A nonzero timer
// starts the interval timer with a short period.
func fuzzMachine(t *testing.T, code []byte, user bool, regs []byte, timer uint8) *Machine {
	t.Helper()
	handlers, err := vax.Assemble(fuzzHandlers)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(Config{MemSize: fuzzMachineMem, TBEntries: 16, Costs: DefaultCosts()})
	if err != nil {
		t.Fatal(err)
	}
	store := func(pa, v uint32) {
		if err := m.Mem.Store32(pa, v); err != nil {
			t.Fatal(err)
		}
	}
	for pa := uint32(0); pa < fuzzMachineMem; pa += 4 {
		store(pa, pa*0x9E3779B1+0x1234)
	}
	for vec := uint16(0); vec < 0x100; vec += 4 {
		store(uint32(vec), handlers.MustSymbol(fuzzVectorHandler(vec)))
	}
	if err := m.Mem.LoadBytes(handlers.Origin-0x80000000, handlers.Bytes); err != nil {
		t.Fatal(err)
	}
	for vpn := uint32(0); vpn < 64; vpn++ {
		store(fuzzSPT+4*vpn, mmu.MakePTE(vpn, mmu.ProtKW))
	}
	for vpn, prot := range fuzzP0Prot {
		pte := uint32(0)
		if prot != 0 {
			pte = mmu.MakePTE(32+uint32(vpn), prot)
		}
		store(fuzzP0PT+4*uint32(vpn), pte)
	}
	if len(code) > fuzzCodeMax {
		code = code[:fuzzCodeMax]
	}
	if err := m.Mem.LoadBytes(32*512+fuzzCodeVA, code); err != nil {
		t.Fatal(err)
	}
	m.SCBB = 0
	m.MMU.SBR, m.MMU.SLR = fuzzSPT, 64
	m.MMU.P0BR, m.MMU.P0LR = 0x80000000+fuzzP0PT, uint32(len(fuzzP0Prot))
	m.MMU.P1BR, m.MMU.P1LR = 0x80000000, mmu.RegionPages
	m.MMU.MapEn = true
	for r := 0; r < vax.SP; r++ {
		m.CPU.R[r] = 0x100*uint32(r) + 0x400 + uint32(r)
		if len(regs) >= 4*(r+1) {
			m.CPU.R[r] = binary.LittleEndian.Uint32(regs[4*r:])
		}
	}
	m.CPU.R[vax.PC] = fuzzCodeVA
	m.CPU.KSP, m.CPU.USP = fuzzKSP, fuzzUSP
	m.CPU.R[vax.SP] = fuzzKSP
	if user {
		m.CPU.PSL = uint32(vax.ModeUser)<<vax.PSLCurModShift | uint32(vax.ModeUser)<<vax.PSLPrvModShift
		m.CPU.R[vax.SP] = fuzzUSP
	}
	if timer != 0 {
		m.ICCS = 1 << 6
		m.ICR = 40 + 4*uint32(timer)
	}
	return m
}

// machineEvent is one hook call with the clock at the time it fired.
type machineEvent struct {
	a      Access
	cycles uint64
}

// machineOutcome is everything a run leaves behind that FuzzMachineStep
// compares.
type machineOutcome struct {
	err          string
	halted       bool
	cpu          CPU
	instrs       uint64
	cycles       uint64
	stats        mmu.Stats
	priv         [6]uint32
	mapEn        bool
	mmuRegs      [6]uint32
	tbFlushes    [2]uint64
	mem, console []byte
	events       []machineEvent
}

// runFuzzMachine builds the fuzzed machine and runs it for n
// instructions, through Run or through a loop of Step calls. A Go panic
// escaping either, or an error other than a MachineCheck, fails the
// test.
func runFuzzMachine(t *testing.T, code []byte, user bool, regs []byte, timer uint8, n uint64, stepped bool) (o machineOutcome) {
	t.Helper()
	m := fuzzMachine(t, code, user, regs, timer)
	for ev := Event(0); ev < NumEvents; ev++ {
		m.AddHook(ev, func(m *Machine, a Access) {
			o.events = append(o.events, machineEvent{a, m.Cycles})
		})
	}
	var err error
	func() {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("code % x user=%v stepped=%v: panic escaped: %v", code, user, stepped, r)
			}
		}()
		if !stepped {
			_, err = m.Run(n)
			return
		}
		for start := m.Instrs; !m.Halted() && m.Instrs-start < n; {
			if err = m.Step(); err != nil {
				return
			}
		}
	}()
	if err != nil {
		var mc *MachineCheck
		if !errors.As(err, &mc) {
			t.Fatalf("code % x user=%v stepped=%v: error %v is not a machine check", code, user, stepped, err)
		}
		o.err = err.Error()
	}
	o.halted = m.Halted()
	o.cpu = m.CPU
	o.instrs, o.cycles = m.Instrs, m.Cycles
	o.stats = m.MMU.Stats
	o.priv = [6]uint32{m.PCBB, m.SCBB, uint32(m.SISR), m.ICCS, m.ICR, uint32(m.CurPID)}
	o.mapEn = m.MMU.MapEn
	o.mmuRegs = [6]uint32{m.MMU.P0BR, m.MMU.P0LR, m.MMU.P1BR, m.MMU.P1LR, m.MMU.SBR, m.MMU.SLR}
	o.tbFlushes = [2]uint64{m.MMU.TB.ProcessFlushes, m.MMU.TB.TotalFlushes}
	mem, merr := m.Mem.Bytes(0, fuzzMachineMem)
	if merr != nil {
		t.Fatal(merr)
	}
	o.mem = slices.Clone(mem)
	o.console = slices.Clone(m.Mem.Console())
	return o
}

// diff names the first field two outcomes disagree on, or returns "".
func (o machineOutcome) diff(p machineOutcome) string {
	switch {
	case o.err != p.err:
		return fmt.Sprintf("error %q vs %q", o.err, p.err)
	case o.halted != p.halted:
		return fmt.Sprintf("halted %v vs %v", o.halted, p.halted)
	case o.cpu != p.cpu:
		return fmt.Sprintf("cpu %+v vs %+v", o.cpu, p.cpu)
	case o.instrs != p.instrs || o.cycles != p.cycles:
		return fmt.Sprintf("instrs/cycles %d/%d vs %d/%d", o.instrs, o.cycles, p.instrs, p.cycles)
	case o.stats != p.stats:
		return fmt.Sprintf("mmu stats %+v vs %+v", o.stats, p.stats)
	case o.priv != p.priv || o.mapEn != p.mapEn || o.mmuRegs != p.mmuRegs || o.tbFlushes != p.tbFlushes:
		return fmt.Sprintf("privileged registers %x %v %x %v vs %x %v %x %v", o.priv, o.mapEn, o.mmuRegs, o.tbFlushes, p.priv, p.mapEn, p.mmuRegs, p.tbFlushes)
	case !slices.Equal(o.mem, p.mem) || !slices.Equal(o.console, p.console):
		return "memory or console"
	case !slices.Equal(o.events, p.events):
		for i := range min(len(o.events), len(p.events)) {
			if o.events[i] != p.events[i] {
				return fmt.Sprintf("event %d: %+v vs %+v", i, o.events[i], p.events[i])
			}
		}
		return fmt.Sprintf("%d events vs %d", len(o.events), len(p.events))
	}
	return ""
}

// fuzzMachineSeeds are programs for FuzzMachineStep's seed corpus: loops,
// every trap the handlers serve, interrupts, the T bit, a halt, and a
// kernel stack that cannot take an exception.
var fuzzMachineSeeds = []string{
	"loop:\tincl\tr0\n\tmovl\t(r1)+, r2\n\taddl2\tr2, (r3)\n\tbrb\tloop\n",
	"\tmovl\t#0x400, r1\n\tmovl\t(r1), r2\n\tmovl\tr2, (r1)\n\tmovl\t#0x600, r3\n\tmovl\tr2, (r3)\n\thalt\n",
	"\tchmk\t#7\n\tmovl\t@#0x1400, r0\n\tmovl\t@#0x4000, r0\n\tclrl\t@#0x800\n",
	"\tdivl2\t#0, r0\n\taddl2\t#0x7fffffff, r1\n\tbpt\n\tpushl\tr0\n\tcalls\t#0, @#0x10\n",
	"\tbispsw\t#0x10\n\tincl\tr0\n\tincl\tr1\n\tmovl\tr0, (sp)\n",
	"\tmtpr\t#1, #20\n\tmtpr\t#3, #20\n\tmtpr\t#0, #18\n\tmfpr\t#62, r5\n\tmtpr\t#0, #57\n\thalt\n",
	"\tmovc3\t#600, (r1), (r8)\n\tmovl\t(r9), r0\n\tmovl\t-4(sp), r0\n",
	"\tmovl\t#0x80000000, r4\n\tmovl\t(r4), r5\n\tmovl\t@#0x7ffffff0, r6\n\trei\n",
	"\tmovl\t#0x40000000, sp\n\tpushl\tr0\n", // in kernel mode, a machine check
}

// FuzzMachineStep runs arbitrary bytes as code, in user and kernel mode
// on a small mapped machine, once through Run and once through a loop
// of Step calls from the same start state. No Go panic may escape
// either, and both must end identical: registers, PSL, cycles,
// instruction count, translation statistics, memory, and the ordered
// hook events with the clock at each.
func FuzzMachineStep(f *testing.F) {
	for i, src := range fuzzMachineSeeds {
		prog, err := vax.Assemble(fmt.Sprintf("\t.org\t%#x\n%s", fuzzCodeVA, src))
		if err != nil {
			f.Fatalf("seed %d: %v", i, err)
		}
		f.Add(prog.Bytes, false, []byte(nil), uint8(0), uint8(200))
		f.Add(prog.Bytes, true, []byte(nil), uint8(i), uint8(200))
	}
	regs := make([]byte, 56)
	for i := range regs {
		regs[i] = byte(0x1F + 0x33*i)
	}
	f.Add([]byte{0xD0, 0x91, 0x52, 0xD0, 0x61, 0x93}, true, regs, uint8(3), uint8(50))
	f.Add([]byte{}, false, []byte(nil), uint8(1), uint8(20))
	f.Fuzz(func(t *testing.T, code []byte, user bool, regs []byte, timer, steps uint8) {
		n := uint64(steps) + 1
		run := runFuzzMachine(t, code, user, regs, timer, n, false)
		stepped := runFuzzMachine(t, code, user, regs, timer, n, true)
		if d := run.diff(stepped); d != "" {
			t.Fatalf("code % x user=%v timer=%d n=%d: Run vs Step loop: %s", code, user, timer, n, d)
		}
	})
}
