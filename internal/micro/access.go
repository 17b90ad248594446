package micro

import (
	"atum/internal/mmu"
	"atum/internal/vax"
)

// ---- instruction stream ----

// ibufValid is the prefetch buffer tag's valid bit. The tag's other bits
// are the buffered longword's address, which is aligned, so bit 0 is free.
const ibufValid = 1

// refillIBuf loads the aligned longword containing va into the prefetch
// buffer, firing an EvIFetch micro-event. Aligned longwords never cross a
// 512-byte page, so one translation and one load suffice.
func (m *Machine) refillIBuf(va uint32) {
	aligned := va &^ 3
	pa, fault := m.MMU.Translate(aligned, m.userMode(), false)
	if fault != nil {
		raiseFault(fault)
	}
	m.Cycles += uint64(m.Costs.IFetchRefill)
	m.fire(Access{Ev: EvIFetch, VA: aligned, Width: 4, Mode: m.mode(), PID: m.CurPID})
	w, err := m.Mem.Load32(pa)
	if err != nil {
		raise(vax.VecMachineCheck, true)
	}
	m.ibuf = w
	m.ibufTag = aligned | ibufValid
}

// fetchByte consumes the next instruction-stream byte at PC.
func (m *Machine) fetchByte() byte {
	pc := m.CPU.R[vax.PC]
	if pc&^3|ibufValid != m.ibufTag {
		m.refillIBuf(pc)
	}
	m.CPU.R[vax.PC] = pc + 1
	return byte(m.ibuf >> (8 * (pc & 3)))
}

// fetchWord consumes the next two instruction-stream bytes, shifting them
// out of the buffered longword in one step. A word whose high byte lies in
// the next longword takes its low byte first and refills with PC at that
// byte: the events, cycles and faults of two fetchByte calls.
func (m *Machine) fetchWord() uint16 {
	pc := m.CPU.R[vax.PC]
	if pc&^3|ibufValid != m.ibufTag {
		m.refillIBuf(pc)
	}
	if pc&3 != 3 {
		m.CPU.R[vax.PC] = pc + 2
		return uint16(m.ibuf >> (8 * (pc & 3)))
	}
	lo := uint16(m.ibuf >> 24)
	m.CPU.R[vax.PC] = pc + 1
	m.refillIBuf(pc + 1)
	m.CPU.R[vax.PC] = pc + 2
	return uint16(m.ibuf)<<8 | lo
}

// fetchLong consumes the next four instruction-stream bytes: the buffered
// longword itself when PC is aligned, else its high bytes and then the low
// bytes of the next longword, refilled with PC at its first byte as four
// fetchByte calls would.
func (m *Machine) fetchLong() uint32 {
	pc := m.CPU.R[vax.PC]
	if pc&^3|ibufValid != m.ibufTag {
		m.refillIBuf(pc)
	}
	sh := 8 * (pc & 3)
	if sh == 0 {
		m.CPU.R[vax.PC] = pc + 4
		return m.ibuf
	}
	lo := m.ibuf >> sh
	next := pc&^3 + 4
	m.CPU.R[vax.PC] = next
	m.refillIBuf(next)
	m.CPU.R[vax.PC] = pc + 4
	return m.ibuf<<(32-sh) | lo
}

// flushIBuf invalidates the prefetch buffer (taken branches, REI, ...).
func (m *Machine) flushIBuf() { m.ibufTag = 0 }

// cpuFetcher adapts the machine to vax.Fetcher for skimOperand, the one
// interpreter path that still decodes through vax.DecodeOperand.
type cpuFetcher Machine

func (f *cpuFetcher) Byte() (byte, error)   { return (*Machine)(f).fetchByte(), nil }
func (f *cpuFetcher) Word() (uint16, error) { return (*Machine)(f).fetchWord(), nil }
func (f *cpuFetcher) Long() (uint32, error) { return (*Machine)(f).fetchLong(), nil }

// ---- data references ----

// raiseFault converts an MMU fault into the architectural exception. The
// handler receives two parameters: an info longword (bit0 = write access,
// bit1 = fault was on a page-table reference) and the faulting VA.
func raiseFault(f *mmu.Fault) {
	vec := uint16(vax.VecTranslationNotValid)
	if f.Kind == mmu.FaultACV {
		vec = vax.VecAccessViolation
	}
	var info uint32
	if f.Write {
		info |= 1
	}
	if f.PTERef {
		info |= 2
	}
	raise(vec, true, info, f.VA)
}

// translate maps va for a data access, raising the architectural fault on
// failure.
func (m *Machine) translate(va uint32, write bool) uint32 {
	pa, fault := m.MMU.Translate(va, m.userMode(), write)
	if fault == nil {
		return pa
	}
	raiseFault(fault)
	return 0
}

// readVirt performs a data read of width bytes at va, firing EvDRead.
// Unaligned accesses that cross a page boundary translate per byte.
func (m *Machine) readVirt(va uint32, width uint8) uint32 {
	m.Cycles += uint64(m.Costs.DataRead)
	m.fire(Access{Ev: EvDRead, VA: va, Width: width, Mode: m.mode(), PID: m.CurPID})
	if crossesPage(va, width) {
		var v uint32
		for i := uint32(0); i < uint32(width); i++ {
			pa := m.translate(va+i, false)
			b, err := m.Mem.Load8(pa)
			if err != nil {
				raise(vax.VecMachineCheck, true)
			}
			v |= uint32(b) << (8 * i)
		}
		return v
	}
	pa := m.translate(va, false)
	switch width {
	case 1:
		b, err := m.Mem.Load8(pa)
		if err != nil {
			raise(vax.VecMachineCheck, true)
		}
		return uint32(b)
	case 2:
		v, err := m.Mem.Load16(pa)
		if err != nil {
			raise(vax.VecMachineCheck, true)
		}
		return uint32(v)
	default:
		v, err := m.Mem.Load32(pa)
		if err != nil {
			raise(vax.VecMachineCheck, true)
		}
		return v
	}
}

// writeVirt performs a data write, firing EvDWrite.
func (m *Machine) writeVirt(va uint32, width uint8, v uint32) {
	m.Cycles += uint64(m.Costs.DataWrite)
	m.fire(Access{Ev: EvDWrite, VA: va, Width: width, Mode: m.mode(), PID: m.CurPID})
	if crossesPage(va, width) {
		for i := uint32(0); i < uint32(width); i++ {
			pa := m.translate(va+i, true)
			if err := m.Mem.Store8(pa, byte(v>>(8*i))); err != nil {
				raise(vax.VecMachineCheck, true)
			}
		}
		return
	}
	pa := m.translate(va, true)
	var err error
	switch width {
	case 1:
		err = m.Mem.Store8(pa, byte(v))
	case 2:
		err = m.Mem.Store16(pa, uint16(v))
	default:
		err = m.Mem.Store32(pa, v)
	}
	if err != nil {
		raise(vax.VecMachineCheck, true)
	}
}

func crossesPage(va uint32, width uint8) bool {
	return va>>9 != (va+uint32(width)-1)>>9
}

// push/pop operate on the current stack (R[SP]). Both move SP through
// the undo log, so a fault on a later stack reference restarts the
// instruction with SP where it was.
func (m *Machine) push(v uint32) {
	sp := m.CPU.R[vax.SP] - 4
	m.setReg(vax.SP, sp)
	m.writeVirt(sp, 4, v)
}

func (m *Machine) pop() uint32 {
	v := m.readVirt(m.CPU.R[vax.SP], 4)
	m.setReg(vax.SP, m.CPU.R[vax.SP]+4)
	return v
}

// ---- operand evaluation ----

// opRef is an evaluated operand location.
type opRef struct {
	kind opKind
	reg  byte   // register operand
	addr uint32 // memory operand effective address
	val  uint32 // literal / immediate value
}

type opKind uint8

const (
	refReg opKind = iota
	refMem
	refImm
)

// setReg mutates a register recording the old value for fault restart.
func (m *Machine) setReg(r byte, v uint32) {
	m.undoLog = append(m.undoLog, regDelta{reg: r, old: m.CPU.R[r]})
	m.CPU.R[r] = v
}

// skimOperand parses the next operand specifier only to advance PC past
// it, without performing side effects or memory references. Restartable
// string instructions use it when resuming with FPD set: their operands
// were already evaluated (progress lives in R0-R5), but the instruction
// must still end with PC at its successor.
func (m *Machine) skimOperand(spec vax.OperandSpec) {
	if _, err := vax.DecodeOperand((*cpuFetcher)(m), spec); err != nil {
		raise(vax.VecReserved, true)
	}
}

// evalOperand evaluates the next operand specifier straight off the
// instruction stream and returns its location, performing the
// architectural side effects (autoincrement/autodecrement, deferred
// pointer reads). Every byte of the specifier is fetched before any of
// its side effects, and an index term R[x]*width is added after the
// base's side effects: the micro-event order and fault precedence of
// vax.DecodeOperand followed by resolution, which FuzzOperandEval pins.
func (m *Machine) evalOperand(spec vax.OperandSpec) opRef {
	sb := m.fetchByte()
	indexed := sb>>4 == 4
	x := sb & 0x0F
	if indexed { // [Rx] prefix: the base specifier follows
		if x == vax.PC {
			raise(vax.VecReserved, true)
		}
		sb = m.fetchByte()
	}
	reg := sb & 0x0F
	var ea uint32
	switch sb >> 4 {
	case 0, 1, 2, 3: // S^#literal
		if indexed {
			raise(vax.VecReserved, true)
		}
		return opRef{kind: refImm, val: uint32(sb & 0x3F)}
	case 4: // an index prefix as the base of another
		raise(vax.VecReserved, true)
	case 5: // Rn
		if indexed || reg == vax.PC {
			raise(vax.VecReserved, true)
		}
		return opRef{kind: refReg, reg: reg}
	case 6: // (Rn)
		ea = m.CPU.R[reg]
	case 7: // -(Rn)
		ea = m.CPU.R[reg] - uint32(spec.Width)
		m.setReg(reg, ea)
	case 8:
		if reg == vax.PC { // #imm = (PC)+
			v := m.fetchImmediate(spec.Width)
			if indexed {
				raise(vax.VecReserved, true)
			}
			return opRef{kind: refImm, val: v}
		}
		ea = m.CPU.R[reg] // (Rn)+
		m.setReg(reg, ea+uint32(spec.Width))
	case 9:
		if reg == vax.PC { // @#addr = @(PC)+
			ea = m.fetchLong()
			break
		}
		ptr := m.CPU.R[reg] // @(Rn)+
		m.setReg(reg, ptr+4)
		ea = m.readVirt(ptr, 4)
	default: // d(Rn) and @d(Rn), byte/word/long displacement
		var d uint32
		switch sb >> 4 {
		case 0xA, 0xB:
			d = uint32(int8(m.fetchByte()))
		case 0xC, 0xD:
			d = uint32(int16(m.fetchWord()))
		default:
			d = m.fetchLong()
		}
		ea = m.CPU.R[reg] + d // PC-relative: PC is past the displacement
		if sb&0x10 != 0 {
			ea = m.readVirt(ea, 4)
		}
	}
	if indexed {
		ea += m.CPU.R[x] * uint32(spec.Width)
	}
	return opRef{kind: refMem, addr: ea}
}

// fetchImmediate consumes an immediate constant of the operand width.
func (m *Machine) fetchImmediate(w vax.Width) uint32 {
	switch w {
	case vax.B:
		return uint32(m.fetchByte())
	case vax.W:
		return uint32(m.fetchWord())
	}
	return m.fetchLong()
}

// readRef reads the operand's value (width-sized, zero-extended raw bits).
func (m *Machine) readRef(r opRef, w vax.Width) uint32 {
	switch r.kind {
	case refImm:
		return truncate(r.val, w)
	case refReg:
		return truncate(m.CPU.R[r.reg], w)
	default:
		return m.readVirt(r.addr, uint8(w))
	}
}

// writeRef stores a width-sized value into the operand location.
// Register byte/word writes merge into the low bits (VAX semantics).
func (m *Machine) writeRef(r opRef, w vax.Width, v uint32) {
	switch r.kind {
	case refImm:
		raise(vax.VecReserved, true)
	case refReg:
		switch w {
		case vax.B:
			m.CPU.R[r.reg] = m.CPU.R[r.reg]&^0xFF | v&0xFF
		case vax.W:
			m.CPU.R[r.reg] = m.CPU.R[r.reg]&^0xFFFF | v&0xFFFF
		default:
			m.CPU.R[r.reg] = v
		}
	default:
		m.writeVirt(r.addr, uint8(w), truncate(v, w))
	}
}

// effectiveAddr returns the address of a memory operand (address-access
// operands like MOVAL/JMP destinations).
func (m *Machine) effectiveAddr(r opRef) uint32 {
	if r.kind != refMem {
		raise(vax.VecReserved, true)
	}
	return r.addr
}

func truncate(v uint32, w vax.Width) uint32 {
	switch w {
	case vax.B:
		return v & 0xFF
	case vax.W:
		return v & 0xFFFF
	default:
		return v
	}
}

func signExtend(v uint32, w vax.Width) int32 {
	switch w {
	case vax.B:
		return int32(int8(v))
	case vax.W:
		return int32(int16(v))
	default:
		return int32(v)
	}
}
