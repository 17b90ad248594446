package micro

import (
	"atum/internal/mem"
	"atum/internal/vax"
)

// readPhys performs a physical data read by microcode (PCB access). It is
// a real memory reference and fires the data-read event with Phys set.
func (m *Machine) readPhys(pa uint32) uint32 {
	m.Cycles += uint64(m.Costs.DataRead)
	m.fire(Access{Ev: EvDRead, VA: pa, Width: 4, Mode: m.mode(), PID: m.CurPID, Phys: true})
	v, err := m.Mem.Load32(pa)
	if err != nil {
		raise(vax.VecMachineCheck, true)
	}
	return v
}

func (m *Machine) writePhys(pa uint32, v uint32) {
	m.Cycles += uint64(m.Costs.DataWrite)
	m.fire(Access{Ev: EvDWrite, VA: pa, Width: 4, Mode: m.mode(), PID: m.CurPID, Phys: true})
	if err := m.Mem.Store32(pa, v); err != nil {
		raise(vax.VecMachineCheck, true)
	}
}

// PCB longword slot indices. The layout is a compaction of the VAX
// hardware process control block (no ESP/SSP since only two modes exist).
const (
	PCBKSP  = 0
	PCBUSP  = 1
	PCBR0   = 2 // R0..R11 occupy slots 2..13
	PCBAP   = 14
	PCBFP   = 15
	PCBPC   = 16
	PCBPSL  = 17
	PCBP0BR = 18
	PCBP0LR = 19
	PCBP1BR = 20
	PCBP1LR = 21
	PCBPID  = 22
	PCBSize = 23 * 4 // bytes
)

// execREI pops PC and PSL from the current stack and resumes. Returning
// to a more privileged mode is a reserved-operand fault.
func execREI(m *Machine) {
	newPC := m.pop()
	newPSL := m.pop()
	if vax.CurMode(newPSL) < vax.CurMode(m.CPU.PSL) {
		raise(vax.VecReserved, true)
	}
	m.setMode(vax.CurMode(newPSL))
	m.CPU.PSL = newPSL
	m.CPU.R[vax.PC] = newPC
	m.flushIBuf()
}

// execLDPCTX loads process context from the PCB at PCBB, invalidates the
// process half of the TB, and pushes the process PC/PSL for the REI that
// follows. All PCB references are physical microcode references.
func execLDPCTX(m *Machine) {
	b := m.PCBB
	m.CPU.KSP = m.readPhys(b + 4*PCBKSP)
	m.CPU.USP = m.readPhys(b + 4*PCBUSP)
	for i := 0; i < 12; i++ {
		m.CPU.R[i] = m.readPhys(b + 4*uint32(PCBR0+i))
	}
	m.CPU.R[vax.AP] = m.readPhys(b + 4*PCBAP)
	m.CPU.R[vax.FP] = m.readPhys(b + 4*PCBFP)
	pc := m.readPhys(b + 4*PCBPC)
	psl := m.readPhys(b + 4*PCBPSL)
	m.MMU.P0BR = m.readPhys(b + 4*PCBP0BR)
	m.MMU.P0LR = m.readPhys(b + 4*PCBP0LR)
	m.MMU.P1BR = m.readPhys(b + 4*PCBP1BR)
	m.MMU.P1LR = m.readPhys(b + 4*PCBP1LR)
	pid := uint8(m.readPhys(b + 4*PCBPID))

	m.MMU.TB.InvalidateProcess()
	prev := m.CurPID
	m.CurPID = pid

	// The switch marker delimits the two processes' reference streams:
	// everything before it (the PCB reads above) belongs to the old
	// context, everything after — including the PC/PSL pushes onto the
	// incoming process's kernel stack — to the new one. When the
	// scheduler re-loads the context it just saved (same PID), the stream
	// does not change hands and no marker is emitted: a marker announcing
	// the already-current PID would double-count switches downstream.
	m.Cycles += uint64(m.Costs.CtxSwitch)
	if pid != prev {
		m.fire(Access{Ev: EvCtxSwitch, VA: b, Mode: m.mode(), PID: pid, Extra: uint16(pid), Phys: true})
	}

	// Executing in kernel mode: refresh the active SP from the new KSP.
	m.CPU.R[vax.SP] = m.CPU.KSP
	m.push(psl)
	m.push(pc)
}

// execSVPCTX saves process context into the PCB at PCBB. The interrupted
// PC/PSL are popped from the kernel stack (they were pushed by the
// exception that entered the kernel).
func execSVPCTX(m *Machine) {
	pc := m.pop()
	psl := m.pop()
	b := m.PCBB
	m.writePhys(b+4*PCBKSP, m.CPU.R[vax.SP]) // kernel SP after the pops
	m.writePhys(b+4*PCBUSP, m.CPU.USP)
	for i := 0; i < 12; i++ {
		m.writePhys(b+4*uint32(PCBR0+i), m.CPU.R[i])
	}
	m.writePhys(b+4*PCBAP, m.CPU.R[vax.AP])
	m.writePhys(b+4*PCBFP, m.CPU.R[vax.FP])
	m.writePhys(b+4*PCBPC, pc)
	m.writePhys(b+4*PCBPSL, psl)
	m.writePhys(b+4*PCBP0BR, m.MMU.P0BR)
	m.writePhys(b+4*PCBP0LR, m.MMU.P0LR)
	m.writePhys(b+4*PCBP1BR, m.MMU.P1BR)
	m.writePhys(b+4*PCBP1LR, m.MMU.P1LR)
}

// execMTPR implements MTPR src, #reg.
func execMTPR(op []vax.OperandSpec) func(*Machine) {
	return func(m *Machine) {
		v := m.readRef(m.evalOperand(op[0]), vax.L)
		reg := m.readRef(m.evalOperand(op[1]), vax.L)
		switch reg {
		case vax.PrKSP:
			if vax.CurMode(m.CPU.PSL) == vax.ModeKernel {
				m.CPU.R[vax.SP] = v
			} else {
				m.CPU.KSP = v
			}
		case vax.PrUSP:
			if vax.CurMode(m.CPU.PSL) == vax.ModeUser {
				m.CPU.R[vax.SP] = v
			} else {
				m.CPU.USP = v
			}
		case vax.PrP0BR:
			m.MMU.P0BR = v
			m.MMU.TB.InvalidateProcess()
		case vax.PrP0LR:
			m.MMU.P0LR = v
			m.MMU.TB.InvalidateProcess()
		case vax.PrP1BR:
			m.MMU.P1BR = v
			m.MMU.TB.InvalidateProcess()
		case vax.PrP1LR:
			m.MMU.P1LR = v
			m.MMU.TB.InvalidateProcess()
		case vax.PrSBR:
			m.MMU.SBR = v
			m.MMU.TB.InvalidateAll()
		case vax.PrSLR:
			m.MMU.SLR = v
			m.MMU.TB.InvalidateAll()
		case vax.PrPCBB:
			m.PCBB = v
		case vax.PrSCBB:
			m.SCBB = v
		case vax.PrIPL:
			m.CPU.PSL = m.CPU.PSL&^vax.PSLIPLMask | (v&0x1F)<<vax.PSLIPLShift
		case vax.PrSIRR:
			if v >= 1 && v <= 15 {
				m.SISR |= 1 << v
			}
		case vax.PrSISR:
			m.SISR = uint16(v) & 0xFFFE
		case vax.PrICCS:
			m.ICCS = v
			m.nextTick = 0
		case vax.PrICR:
			m.ICR = v
			m.nextTick = 0
		case vax.PrMAPEN:
			m.MMU.MapEn = v&1 != 0
			m.MMU.TB.InvalidateAll()
			m.flushIBuf()
		case vax.PrTBIA:
			// Explicit invalidates broadcast to sibling cores (the
			// shootdown bus): the kernel issues TBIA after changing a
			// shared mapping, and every core's TB must drop it.
			m.MMU.TB.InvalidateAll()
			for _, tb := range m.TBPeers {
				tb.TB.InvalidateAll()
			}
		case vax.PrTBIS:
			m.MMU.TB.InvalidateSingle(v)
			for _, tb := range m.TBPeers {
				tb.TB.InvalidateSingle(v)
			}
		case vax.PrTXDB:
			if err := m.Mem.Store8(mem.ConsoleTX, byte(v)); err != nil {
				raise(vax.VecMachineCheck, true)
			}
		case PrDISKBLK:
			m.disk.blk = v
		case PrDISKADDR:
			m.disk.addr = v
		case PrDISKOP:
			m.diskOp(v)
		default:
			raise(vax.VecReserved, true)
		}
	}
}

// execMFPR implements MFPR #reg, dst.
func execMFPR(op []vax.OperandSpec) func(*Machine) {
	return func(m *Machine) {
		reg := m.readRef(m.evalOperand(op[0]), vax.L)
		dst := m.evalOperand(op[1])
		var v uint32
		switch reg {
		case vax.PrKSP:
			if vax.CurMode(m.CPU.PSL) == vax.ModeKernel {
				v = m.CPU.R[vax.SP]
			} else {
				v = m.CPU.KSP
			}
		case vax.PrUSP:
			if vax.CurMode(m.CPU.PSL) == vax.ModeUser {
				v = m.CPU.R[vax.SP]
			} else {
				v = m.CPU.USP
			}
		case vax.PrP0BR:
			v = m.MMU.P0BR
		case vax.PrP0LR:
			v = m.MMU.P0LR
		case vax.PrP1BR:
			v = m.MMU.P1BR
		case vax.PrP1LR:
			v = m.MMU.P1LR
		case vax.PrSBR:
			v = m.MMU.SBR
		case vax.PrSLR:
			v = m.MMU.SLR
		case vax.PrPCBB:
			v = m.PCBB
		case vax.PrSCBB:
			v = m.SCBB
		case vax.PrIPL:
			v = uint32(vax.IPL(m.CPU.PSL))
		case vax.PrSISR:
			v = uint32(m.SISR)
		case vax.PrICCS:
			v = m.ICCS
		case vax.PrICR:
			v = m.ICR
		case vax.PrMAPEN:
			if m.MMU.MapEn {
				v = 1
			}
		case vax.PrCPUID:
			v = uint32(m.CPUID)
		default:
			raise(vax.VecReserved, true)
		}
		m.writeRef(dst, vax.L, v)
	}
}

// execMOVC3 implements the microcoded block copy with first-part-done
// restart: a page fault mid-copy leaves progress in R0/R1/R3 and the FPD
// bit set in the pushed PSL, so the re-executed instruction resumes
// instead of restarting.
func execMOVC3(op []vax.OperandSpec) func(*Machine) {
	return func(m *Machine) {
		if m.CPU.PSL&vax.PSLFPD == 0 {
			length := m.readRef(m.evalOperand(op[0]), vax.W)
			src := m.effectiveAddr(m.evalOperand(op[1]))
			dst := m.effectiveAddr(m.evalOperand(op[2]))
			m.CPU.R[0] = length
			m.CPU.R[1] = src
			m.CPU.R[2] = 0
			m.CPU.R[3] = dst
			m.CPU.R[4] = 0
			m.CPU.R[5] = 0
			m.CPU.PSL |= vax.PSLFPD
		} else {
			// Resuming: progress lives in R0/R1/R3; advance PC past
			// the already-evaluated specifiers.
			for _, s := range op {
				m.skimOperand(s)
			}
		}
		for m.CPU.R[0] != 0 {
			b := m.readVirt(m.CPU.R[1], 1)
			m.writeVirt(m.CPU.R[3], 1, b)
			m.CPU.R[1]++
			m.CPU.R[3]++
			m.CPU.R[0]--
		}
		m.CPU.PSL &^= vax.PSLFPD
		m.ccNZ(0, vax.L) // Z set, N/V clear
		m.CPU.PSL &^= vax.PSLC
	}
}

// execCALLS implements the VAX call-with-stack-args procedure linkage.
// Stack frame (from FP upward): condition handler (0), status longword
// (entry mask in bits 16..27, saved condition codes in bits 0..3), saved
// AP, saved FP, return PC, then the registers named by the entry mask.
func execCALLS(op []vax.OperandSpec) func(*Machine) {
	return func(m *Machine) {
		n := m.readRef(m.evalOperand(op[0]), vax.L)
		proc := m.effectiveAddr(m.evalOperand(op[1]))

		m.push(n)
		apVal := m.CPU.R[vax.SP] // AP will point at the argument count

		// The entry mask prefixes the procedure's first instruction.
		mask := m.readVirt(proc, 2)
		for r := 11; r >= 0; r-- {
			if mask&(1<<uint(r)) != 0 {
				m.push(m.CPU.R[r])
			}
		}
		m.push(m.CPU.R[vax.PC]) // return address
		m.push(m.CPU.R[vax.FP])
		m.push(m.CPU.R[vax.AP])
		status := mask<<16 | m.CPU.PSL&(vax.PSLN|vax.PSLZ|vax.PSLV|vax.PSLC)
		m.push(status)
		m.push(0) // condition handler

		m.CPU.R[vax.FP] = m.CPU.R[vax.SP]
		m.CPU.R[vax.AP] = apVal
		m.CPU.R[vax.PC] = proc + 2
		m.CPU.PSL &^= vax.PSLN | vax.PSLZ | vax.PSLV | vax.PSLC
		m.flushIBuf()
	}
}

// execRET unwinds a CALLS frame. Every register it writes goes through
// the undo log, so a fault on any pop restarts it with the frame intact.
func execRET(m *Machine) {
	m.setReg(vax.SP, m.CPU.R[vax.FP])
	_ = m.pop() // condition handler
	status := m.pop()
	m.setReg(vax.AP, m.pop())
	m.setReg(vax.FP, m.pop())
	m.setReg(vax.PC, m.pop())
	mask := status >> 16 & 0xFFF
	for r := 0; r <= 11; r++ {
		if mask&(1<<uint(r)) != 0 {
			m.setReg(byte(r), m.pop())
		}
	}
	n := m.pop() // argument count pushed by CALLS
	m.setReg(vax.SP, m.CPU.R[vax.SP]+4*n)
	m.CPU.PSL = m.CPU.PSL&^(vax.PSLN|vax.PSLZ|vax.PSLV|vax.PSLC) |
		status&(vax.PSLN|vax.PSLZ|vax.PSLV|vax.PSLC)
	m.flushIBuf()
}
