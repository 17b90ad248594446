package micro

import (
	"encoding/binary"
	"slices"
	"testing"

	"atum/internal/vax"
)

// The reference operand path: vax.DecodeOperand reads the specifier
// through cpuFetcher, then resolve applies it to the machine.
// evalOperand and evalBranch fuse the two stages; FuzzOperandEval holds
// them to this oracle event for event.

func (m *Machine) evalOperandRef(spec vax.OperandSpec) opRef {
	op, err := vax.DecodeOperand((*cpuFetcher)(m), spec)
	if err != nil {
		raise(vax.VecReserved, true)
	}
	return m.resolve(op, spec)
}

func (m *Machine) evalBranchRef(spec vax.OperandSpec) int32 {
	op, err := vax.DecodeOperand((*cpuFetcher)(m), spec)
	if err != nil {
		raise(vax.VecReserved, true)
	}
	return op.Disp
}

func (m *Machine) resolve(op vax.Operand, spec vax.OperandSpec) opRef {
	width := uint32(spec.Width)
	var ea uint32
	switch op.Mode {
	case vax.ModeLiteral:
		return opRef{kind: refImm, val: uint32(op.Lit)}
	case vax.ModeImmediate:
		return opRef{kind: refImm, val: op.Imm}
	case vax.ModeRegister:
		if op.Reg == vax.PC {
			raise(vax.VecReserved, true)
		}
		return opRef{kind: refReg, reg: op.Reg}
	case vax.ModeRegDeferred:
		ea = m.CPU.R[op.Reg]
	case vax.ModeAutoDec:
		m.setReg(op.Reg, m.CPU.R[op.Reg]-width)
		ea = m.CPU.R[op.Reg]
	case vax.ModeAutoInc:
		ea = m.CPU.R[op.Reg]
		m.setReg(op.Reg, ea+width)
	case vax.ModeAutoIncDeferred:
		ptr := m.CPU.R[op.Reg]
		m.setReg(op.Reg, ptr+4)
		ea = m.readVirt(ptr, 4)
	case vax.ModeAbsolute:
		ea = op.Imm
	case vax.ModeByteDisp, vax.ModeWordDisp, vax.ModeLongDisp:
		ea = m.CPU.R[op.Reg] + uint32(op.Disp)
	case vax.ModeByteDispDef, vax.ModeWordDispDef, vax.ModeLongDispDef:
		ea = m.readVirt(m.CPU.R[op.Reg]+uint32(op.Disp), 4)
	default:
		raise(vax.VecReserved, true)
	}
	if op.Indexed {
		ea += m.CPU.R[op.Xreg] * width
	}
	return opRef{kind: refMem, addr: ea}
}

// fuzzSpecs lists every (Access, Width) pair the opcode table uses, in
// opcode order, plus a branch of a width no opcode uses (a reserved
// operand fault).
var fuzzSpecs = func() []vax.OperandSpec {
	var specs []vax.OperandSpec
	for _, info := range vax.Instructions {
		if info == nil {
			continue
		}
		for _, s := range info.Operands {
			if !slices.Contains(specs, s) {
				specs = append(specs, s)
			}
		}
	}
	return append(specs, vax.OperandSpec{Access: vax.AccBranch, Width: vax.L})
}()

func fuzzSpecIndex(s vax.OperandSpec) uint8 { return uint8(slices.Index(fuzzSpecs, s)) }

const fuzzMemSize = 16 << 10

// operandEvent is what FuzzOperandEval compares of each micro-event.
type operandEvent struct {
	ev    Event
	va    uint32
	width uint8
}

// operandRun is the machine state one evaluation leaves behind.
type operandRun struct {
	ref    opRef
	disp   int32
	trap   *trap
	regs   [16]uint32
	undo   []regDelta
	events []operandEvent
	cycles uint64
}

// evalOnFreshMachine evaluates one operand of the given spec from code
// on a machine with mapping off. regs seeds R0-R14 (little-endian, four
// bytes each; missing ones default to addresses in RAM). With top set,
// the code is placed so that it runs off the end of RAM partway
// through, and the fetch of its tail machine-checks.
func evalOnFreshMachine(t *testing.T, code []byte, spec vax.OperandSpec, top bool, regs []byte, ref bool) operandRun {
	t.Helper()
	m, err := New(Config{MemSize: fuzzMemSize, TBEntries: 64, Costs: DefaultCosts()})
	if err != nil {
		t.Fatal(err)
	}
	for a := uint32(0); a < fuzzMemSize; a += 4 {
		if err := m.Mem.Store32(a, a*0x9E3779B1+0x1234); err != nil {
			t.Fatal(err)
		}
	}
	pc := uint32(0x200)
	if top {
		pc = fuzzMemSize - uint32(len(code)+1)/2
	}
	for i, b := range code {
		if pc+uint32(i) < fuzzMemSize {
			if err := m.Mem.Store8(pc+uint32(i), b); err != nil {
				t.Fatal(err)
			}
		}
	}
	for r := 0; r < vax.PC; r++ {
		m.CPU.R[r] = 0x400 + 0x100*uint32(r)
		if len(regs) >= 4*(r+1) {
			m.CPU.R[r] = binary.LittleEndian.Uint32(regs[4*r:])
		}
	}
	m.CPU.R[vax.PC] = pc
	var run operandRun
	for ev := Event(0); ev < NumEvents; ev++ {
		m.AddHook(ev, func(_ *Machine, a Access) {
			run.events = append(run.events, operandEvent{a.Ev, a.VA, a.Width})
		})
	}
	func() {
		defer func() {
			if r := recover(); r != nil {
				tr, ok := r.(*trap)
				if !ok {
					panic(r)
				}
				run.trap = tr
			}
		}()
		switch {
		case spec.Access == vax.AccBranch && ref:
			run.disp = m.evalBranchRef(spec)
		case spec.Access == vax.AccBranch:
			run.disp = m.evalBranch(spec)
		case ref:
			run.ref = m.evalOperandRef(spec)
		default:
			run.ref = m.evalOperand(spec)
		}
	}()
	run.regs = m.CPU.R
	run.undo = m.undoLog
	run.cycles = m.Cycles
	return run
}

// FuzzOperandEval checks the fused operand evaluator against the
// two-stage reference (vax.DecodeOperand, then resolve) on arbitrary
// specifier bytes, every operand spec of the opcode table and fuzzed
// registers: the location, the registers and undo log, the ordered
// micro-events and any trap raised must all agree.
func FuzzOperandEval(f *testing.F) {
	rl := fuzzSpecIndex(vax.OperandSpec{Access: vax.AccRead, Width: vax.L})
	rb := fuzzSpecIndex(vax.OperandSpec{Access: vax.AccRead, Width: vax.B})
	rw := fuzzSpecIndex(vax.OperandSpec{Access: vax.AccRead, Width: vax.W})
	ml := fuzzSpecIndex(vax.OperandSpec{Access: vax.AccModify, Width: vax.L})
	bb := fuzzSpecIndex(vax.OperandSpec{Access: vax.AccBranch, Width: vax.B})
	bw := fuzzSpecIndex(vax.OperandSpec{Access: vax.AccBranch, Width: vax.W})
	bl := fuzzSpecIndex(vax.OperandSpec{Access: vax.AccBranch, Width: vax.L})
	tail := []byte{0x10, 0x20, 0x30, 0x40, 0x50}
	for nib := byte(0); nib < 16; nib++ {
		for _, reg := range []byte{3, vax.PC} { // every mode nibble, every PC form
			code := append([]byte{nib<<4 | reg}, tail...)
			f.Add(code, ml, false, []byte(nil))
			f.Add(code, rb, true, []byte(nil))
		}
	}
	for _, w := range []uint8{rb, rw, rl} { // B/W/L immediates, plain and as an index base
		f.Add([]byte{0x8F, 0xEF, 0xBE, 0xAD, 0xDE}, w, false, []byte(nil))
		f.Add([]byte{0x42, 0x8F, 0xEF, 0xBE, 0xAD, 0xDE}, w, false, []byte(nil))
		f.Add([]byte{0x42, 0x8F, 0xEF, 0xBE, 0xAD, 0xDE}, w, true, []byte(nil))
	}
	for _, code := range [][]byte{
		{0x41, 0x05},                         // literal index base
		{0x41, 0x52},                         // register index base
		{0x41, 0x43, 0x62},                   // nested index
		{0x4F, 0x62},                         // PC as the index register
		{0x5F},                               // PC as a register operand
		{0x43, 0x83},                         // (R3)+[R3]: the index reads R3 after the increment
		{0x43, 0x73},                         // -(R3)[R3]
		{0x45, 0x9F, 0x00, 0x10, 0x00, 0x00}, // @#addr[R5]
		{0x45, 0xBF, 0x08},                   // @B^d(PC)[R5]
		{0x45, 0xE3, 0x00, 0x00, 0x01, 0x00}, // L^d(R3)[R5] past RAM, no reference
		{0x45, 0xF3, 0x00, 0x00, 0x01, 0x00}, // @L^d(R3)[R5]: the deferred read machine-checks
		{0x93},                               // @(R3)+
	} {
		f.Add(code, rl, false, []byte(nil))
		f.Add(code, rl, true, []byte(nil))
	}
	for _, s := range []uint8{bb, bw, bl} {
		f.Add([]byte{0xFE, 0xFF}, s, false, []byte(nil))
		f.Add([]byte{0xFE, 0xFF}, s, true, []byte(nil))
	}
	regs := make([]byte, 60)
	for i := range regs {
		regs[i] = byte(0xF0 + i)
	}
	f.Add([]byte{0x93}, rl, false, regs) // pointer read outside RAM
	f.Add([]byte{0x73}, rw, false, regs)
	f.Fuzz(func(t *testing.T, code []byte, specIdx uint8, top bool, regs []byte) {
		spec := fuzzSpecs[int(specIdx)%len(fuzzSpecs)]
		want := evalOnFreshMachine(t, code, spec, top, regs, true)
		got := evalOnFreshMachine(t, code, spec, top, regs, false)
		if (got.trap == nil) != (want.trap == nil) ||
			got.trap != nil && (got.trap.vector != want.trap.vector || got.trap.restart != want.trap.restart || !slices.Equal(got.trap.params, want.trap.params)) {
			t.Fatalf("spec %v/%v code % x: trap %+v, reference %+v", spec.Access, spec.Width, code, got.trap, want.trap)
		}
		if got.ref != want.ref || got.disp != want.disp {
			t.Errorf("spec %v/%v code % x: operand %+v disp %d, reference %+v disp %d", spec.Access, spec.Width, code, got.ref, got.disp, want.ref, want.disp)
		}
		if got.regs != want.regs || !slices.Equal(got.undo, want.undo) {
			t.Errorf("spec %v/%v code % x: registers %x undo %v, reference %x undo %v", spec.Access, spec.Width, code, got.regs, got.undo, want.regs, want.undo)
		}
		if !slices.Equal(got.events, want.events) || got.cycles != want.cycles {
			t.Errorf("spec %v/%v code % x: events %v (%d cycles), reference %v (%d cycles)", spec.Access, spec.Width, code, got.events, got.cycles, want.events, want.cycles)
		}
	})
}
