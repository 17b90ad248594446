package micro

import (
	"math/bits"

	"atum/internal/vax"
)

// stockExec builds the semantic body of the stock microroutine for one
// opcode. Operand specs (and therefore widths) come from the opcode
// table, so the same body implements the B/W/L variants of a family.
func stockExec(info *vax.InstrInfo) func(*Machine) {
	op := info.Operands
	switch info.Opcode {
	case vax.OpHALT:
		return func(m *Machine) { m.halted = true }
	case vax.OpNOP:
		return func(m *Machine) {}
	case vax.OpBPT:
		return func(m *Machine) { raise(vax.VecBreakpoint, false) }
	case vax.OpREI:
		return execREI
	case vax.OpRET:
		return execRET
	case vax.OpRSB:
		return func(m *Machine) {
			m.CPU.R[vax.PC] = m.pop()
			m.flushIBuf()
		}
	case vax.OpLDPCTX:
		return execLDPCTX
	case vax.OpSVPCTX:
		return execSVPCTX

	case vax.OpBRB, vax.OpBRW:
		return func(m *Machine) {
			d := m.evalBranch(op[0])
			m.branch(d)
		}
	case vax.OpBSBB, vax.OpBSBW:
		return func(m *Machine) {
			d := m.evalBranch(op[0])
			m.push(m.CPU.R[vax.PC])
			m.branch(d)
		}
	case vax.OpBNEQ:
		return condBranch(op[0], func(p uint32) bool { return p&vax.PSLZ == 0 })
	case vax.OpBEQL:
		return condBranch(op[0], func(p uint32) bool { return p&vax.PSLZ != 0 })
	case vax.OpBGTR:
		return condBranch(op[0], func(p uint32) bool { return p&(vax.PSLN|vax.PSLZ) == 0 })
	case vax.OpBLEQ:
		return condBranch(op[0], func(p uint32) bool { return p&(vax.PSLN|vax.PSLZ) != 0 })
	case vax.OpBGEQ:
		return condBranch(op[0], func(p uint32) bool { return p&vax.PSLN == 0 })
	case vax.OpBLSS:
		return condBranch(op[0], func(p uint32) bool { return p&vax.PSLN != 0 })
	case vax.OpBGTRU:
		return condBranch(op[0], func(p uint32) bool { return p&(vax.PSLC|vax.PSLZ) == 0 })
	case vax.OpBLEQU:
		return condBranch(op[0], func(p uint32) bool { return p&(vax.PSLC|vax.PSLZ) != 0 })
	case vax.OpBVC:
		return condBranch(op[0], func(p uint32) bool { return p&vax.PSLV == 0 })
	case vax.OpBVS:
		return condBranch(op[0], func(p uint32) bool { return p&vax.PSLV != 0 })
	case vax.OpBCC:
		return condBranch(op[0], func(p uint32) bool { return p&vax.PSLC == 0 })
	case vax.OpBCS:
		return condBranch(op[0], func(p uint32) bool { return p&vax.PSLC != 0 })

	case vax.OpJMP:
		return func(m *Machine) {
			ea := m.effectiveAddr(m.evalOperand(op[0]))
			m.CPU.R[vax.PC] = ea
			m.flushIBuf()
		}
	case vax.OpJSB:
		return func(m *Machine) {
			ea := m.effectiveAddr(m.evalOperand(op[0]))
			m.push(m.CPU.R[vax.PC])
			m.CPU.R[vax.PC] = ea
			m.flushIBuf()
		}

	case vax.OpMOVB, vax.OpMOVW, vax.OpMOVL:
		w := op[0].Width
		return func(m *Machine) {
			v := m.readRef(m.evalOperand(op[0]), w)
			dst := m.evalOperand(op[1])
			m.writeRef(dst, w, v)
			m.ccNZ(v, w)
		}
	case vax.OpMOVZBL, vax.OpMOVZWL, vax.OpMOVZBW:
		sw, dw := op[0].Width, op[1].Width
		return func(m *Machine) {
			v := m.readRef(m.evalOperand(op[0]), sw) // already zero-extended
			dst := m.evalOperand(op[1])
			m.writeRef(dst, dw, v)
			m.ccNZ(v, dw)
		}
	case vax.OpCVTBL, vax.OpCVTWL, vax.OpCVTBW:
		sw, dw := op[0].Width, op[1].Width
		return func(m *Machine) {
			v := uint32(signExtend(m.readRef(m.evalOperand(op[0]), sw), sw))
			dst := m.evalOperand(op[1])
			m.writeRef(dst, dw, v)
			m.ccNZ(v, dw)
			m.CPU.PSL &^= vax.PSLC
		}
	case vax.OpCVTLB, vax.OpCVTLW, vax.OpCVTWB:
		sw, dw := op[0].Width, op[1].Width
		return func(m *Machine) {
			v := uint32(signExtend(m.readRef(m.evalOperand(op[0]), sw), sw))
			dst := m.evalOperand(op[1])
			r := truncate(v, dw)
			m.writeRef(dst, dw, r)
			m.ccNZ(r, dw)
			m.CPU.PSL &^= vax.PSLC
			if uint32(signExtend(r, dw)) != v {
				m.CPU.PSL |= vax.PSLV
			}
		}
	case vax.OpMCOMB, vax.OpMCOMW, vax.OpMCOML:
		w := op[0].Width
		return func(m *Machine) {
			v := truncate(^m.readRef(m.evalOperand(op[0]), w), w)
			dst := m.evalOperand(op[1])
			m.writeRef(dst, w, v)
			m.ccNZ(v, w)
		}
	case vax.OpMNEGB, vax.OpMNEGW, vax.OpMNEGL:
		w := op[0].Width
		return func(m *Machine) {
			v := m.readRef(m.evalOperand(op[0]), w)
			dst := m.evalOperand(op[1])
			r := m.subCC(0, v, w)
			m.writeRef(dst, w, r)
		}
	case vax.OpCLRB, vax.OpCLRW, vax.OpCLRL:
		w := op[0].Width
		return func(m *Machine) {
			dst := m.evalOperand(op[0])
			m.writeRef(dst, w, 0)
			m.ccNZ(0, w)
		}
	case vax.OpTSTB, vax.OpTSTW, vax.OpTSTL:
		w := op[0].Width
		return func(m *Machine) {
			v := m.readRef(m.evalOperand(op[0]), w)
			m.ccNZ(v, w)
			m.CPU.PSL &^= vax.PSLC
		}
	case vax.OpCMPB, vax.OpCMPW, vax.OpCMPL:
		w := op[0].Width
		return func(m *Machine) {
			a := m.readRef(m.evalOperand(op[0]), w)
			b := m.readRef(m.evalOperand(op[1]), w)
			m.cmpCC(a, b, w)
		}
	case vax.OpBITB, vax.OpBITW, vax.OpBITL:
		w := op[0].Width
		return func(m *Machine) {
			a := m.readRef(m.evalOperand(op[0]), w)
			b := m.readRef(m.evalOperand(op[1]), w)
			m.ccNZ(a&b, w)
		}

	case vax.OpADDB2, vax.OpADDW2, vax.OpADDL2:
		w := op[0].Width
		return func(m *Machine) {
			a := m.readRef(m.evalOperand(op[0]), w)
			dst := m.evalOperand(op[1])
			b := m.readRef(dst, w)
			m.writeRef(dst, w, m.addCC(b, a, w))
		}
	case vax.OpADDB3, vax.OpADDW3, vax.OpADDL3:
		w := op[0].Width
		return func(m *Machine) {
			a := m.readRef(m.evalOperand(op[0]), w)
			b := m.readRef(m.evalOperand(op[1]), w)
			dst := m.evalOperand(op[2])
			m.writeRef(dst, w, m.addCC(b, a, w))
		}
	case vax.OpSUBB2, vax.OpSUBW2, vax.OpSUBL2:
		w := op[0].Width
		return func(m *Machine) {
			a := m.readRef(m.evalOperand(op[0]), w)
			dst := m.evalOperand(op[1])
			b := m.readRef(dst, w)
			m.writeRef(dst, w, m.subCC(b, a, w))
		}
	case vax.OpSUBB3, vax.OpSUBW3, vax.OpSUBL3:
		w := op[0].Width
		return func(m *Machine) {
			a := m.readRef(m.evalOperand(op[0]), w) // subtrahend
			b := m.readRef(m.evalOperand(op[1]), w) // minuend
			dst := m.evalOperand(op[2])
			m.writeRef(dst, w, m.subCC(b, a, w))
		}
	case vax.OpINCB, vax.OpINCW, vax.OpINCL:
		w := op[0].Width
		return func(m *Machine) {
			dst := m.evalOperand(op[0])
			v := m.readRef(dst, w)
			m.writeRef(dst, w, m.addCC(v, 1, w))
		}
	case vax.OpDECB, vax.OpDECW, vax.OpDECL:
		w := op[0].Width
		return func(m *Machine) {
			dst := m.evalOperand(op[0])
			v := m.readRef(dst, w)
			m.writeRef(dst, w, m.subCC(v, 1, w))
		}

	case vax.OpMULL2:
		return func(m *Machine) {
			a := m.readRef(m.evalOperand(op[0]), vax.L)
			dst := m.evalOperand(op[1])
			b := m.readRef(dst, vax.L)
			m.writeRef(dst, vax.L, m.mulCC(a, b))
		}
	case vax.OpMULL3:
		return func(m *Machine) {
			a := m.readRef(m.evalOperand(op[0]), vax.L)
			b := m.readRef(m.evalOperand(op[1]), vax.L)
			dst := m.evalOperand(op[2])
			m.writeRef(dst, vax.L, m.mulCC(a, b))
		}
	case vax.OpDIVL2:
		return func(m *Machine) {
			a := m.readRef(m.evalOperand(op[0]), vax.L) // divisor
			dst := m.evalOperand(op[1])
			b := m.readRef(dst, vax.L)
			m.writeRef(dst, vax.L, m.divCC(b, a))
		}
	case vax.OpDIVL3:
		return func(m *Machine) {
			a := m.readRef(m.evalOperand(op[0]), vax.L) // divisor
			b := m.readRef(m.evalOperand(op[1]), vax.L) // dividend
			dst := m.evalOperand(op[2])
			m.writeRef(dst, vax.L, m.divCC(b, a))
		}
	case vax.OpEMUL:
		return func(m *Machine) {
			a := int64(int32(m.readRef(m.evalOperand(op[0]), vax.L)))
			b := int64(int32(m.readRef(m.evalOperand(op[1]), vax.L)))
			c := int64(int32(m.readRef(m.evalOperand(op[2]), vax.L)))
			dst := m.evalOperand(op[3])
			// Deviation from the VAX: the product destination is a
			// longword, not a quadword; the low 32 bits are stored.
			r := uint32(a*b + c)
			m.writeRef(dst, vax.L, r)
			m.ccNZ(r, vax.L)
		}
	case vax.OpEDIV:
		return func(m *Machine) {
			divisor := int32(m.readRef(m.evalOperand(op[0]), vax.L))
			dividend := int32(m.readRef(m.evalOperand(op[1]), vax.L))
			qdst := m.evalOperand(op[2])
			rdst := m.evalOperand(op[3])
			if divisor == 0 {
				m.CPU.PSL |= vax.PSLV
				raise(vax.VecArithmetic, false, 1) // divide by zero
			}
			q := dividend / divisor
			r := dividend % divisor
			m.writeRef(qdst, vax.L, uint32(q))
			m.writeRef(rdst, vax.L, uint32(r))
			m.ccNZ(uint32(q), vax.L)
		}

	case vax.OpBISB2, vax.OpBISW2, vax.OpBISL2:
		return logic2(op, func(a, b uint32) uint32 { return b | a })
	case vax.OpBISB3, vax.OpBISW3, vax.OpBISL3:
		return logic3(op, func(a, b uint32) uint32 { return b | a })
	case vax.OpBICB2, vax.OpBICW2, vax.OpBICL2:
		return logic2(op, func(a, b uint32) uint32 { return b &^ a })
	case vax.OpBICB3, vax.OpBICW3, vax.OpBICL3:
		return logic3(op, func(a, b uint32) uint32 { return b &^ a })
	case vax.OpXORB2, vax.OpXORW2, vax.OpXORL2:
		return logic2(op, func(a, b uint32) uint32 { return b ^ a })
	case vax.OpXORB3, vax.OpXORW3, vax.OpXORL3:
		return logic3(op, func(a, b uint32) uint32 { return b ^ a })

	case vax.OpADWC, vax.OpSBWC:
		subtract := info.Opcode == vax.OpSBWC
		return func(m *Machine) {
			a := m.readRef(m.evalOperand(op[0]), vax.L)
			dst := m.evalOperand(op[1])
			b := m.readRef(dst, vax.L)
			m.writeRef(dst, vax.L, m.carryChainCC(b, a, subtract))
		}

	case vax.OpROTL:
		return func(m *Machine) {
			cnt := int(int8(m.readRef(m.evalOperand(op[0]), vax.B)))
			src := m.readRef(m.evalOperand(op[1]), vax.L)
			dst := m.evalOperand(op[2])
			r := bits.RotateLeft32(src, cnt)
			m.writeRef(dst, vax.L, r)
			m.ccNZ(r, vax.L)
		}

	case vax.OpBISPSW, vax.OpBICPSW:
		clear := info.Opcode == vax.OpBICPSW
		return func(m *Machine) {
			mask := m.readRef(m.evalOperand(op[0]), vax.W)
			if mask&^0xFF != 0 {
				raise(vax.VecReserved, true)
			}
			if clear {
				m.CPU.PSL &^= mask & 0xFF
			} else {
				m.CPU.PSL |= mask & 0xFF
			}
		}

	case vax.OpINSQUE:
		return execINSQUE(op)
	case vax.OpREMQUE:
		return execREMQUE(op)
	case vax.OpCMPC3:
		return execCMPC3(op)
	case vax.OpMOVC5:
		return execMOVC5(op)
	case vax.OpLOCC, vax.OpSKPC:
		return execLOCC(op, info.Opcode == vax.OpSKPC)

	case vax.OpASHL:
		return func(m *Machine) {
			cnt := int32(int8(m.readRef(m.evalOperand(op[0]), vax.B)))
			src := m.readRef(m.evalOperand(op[1]), vax.L)
			dst := m.evalOperand(op[2])
			var r uint32
			overflow := false
			switch {
			case cnt >= 32:
				r = 0
				overflow = src != 0
			case cnt >= 0:
				r = src << uint(cnt)
				overflow = int32(r)>>uint(cnt) != int32(src)
			case cnt <= -32:
				r = uint32(int32(src) >> 31)
			default:
				r = uint32(int32(src) >> uint(-cnt))
			}
			m.writeRef(dst, vax.L, r)
			m.ccNZ(r, vax.L)
			if overflow {
				m.CPU.PSL |= vax.PSLV
			}
		}

	case vax.OpMOVAB, vax.OpMOVAL:
		return func(m *Machine) {
			ea := m.effectiveAddr(m.evalOperand(op[0]))
			dst := m.evalOperand(op[1])
			m.writeRef(dst, vax.L, ea)
			m.ccNZ(ea, vax.L)
		}
	case vax.OpPUSHAB, vax.OpPUSHAL:
		return func(m *Machine) {
			ea := m.effectiveAddr(m.evalOperand(op[0]))
			m.push(ea)
			m.ccNZ(ea, vax.L)
		}
	case vax.OpPUSHL:
		return func(m *Machine) {
			v := m.readRef(m.evalOperand(op[0]), vax.L)
			m.push(v)
			m.ccNZ(v, vax.L)
		}
	case vax.OpMOVPSL:
		return func(m *Machine) {
			dst := m.evalOperand(op[0])
			m.writeRef(dst, vax.L, m.CPU.PSL)
		}

	case vax.OpPUSHR:
		return func(m *Machine) {
			mask := m.readRef(m.evalOperand(op[0]), vax.W)
			for r := 14; r >= 0; r-- {
				if mask&(1<<uint(r)) != 0 {
					m.push(m.CPU.R[r])
				}
			}
		}
	case vax.OpPOPR:
		return func(m *Machine) {
			mask := m.readRef(m.evalOperand(op[0]), vax.W)
			for r := 0; r <= 14; r++ {
				if mask&(1<<uint(r)) != 0 {
					m.setReg(byte(r), m.pop())
				}
			}
		}

	case vax.OpBLBS:
		return func(m *Machine) {
			v := m.readRef(m.evalOperand(op[0]), vax.L)
			d := m.evalBranch(op[1])
			if v&1 != 0 {
				m.branch(d)
			}
		}
	case vax.OpBLBC:
		return func(m *Machine) {
			v := m.readRef(m.evalOperand(op[0]), vax.L)
			d := m.evalBranch(op[1])
			if v&1 == 0 {
				m.branch(d)
			}
		}
	case vax.OpBBS, vax.OpBBC:
		wantSet := info.Opcode == vax.OpBBS
		return func(m *Machine) {
			pos := m.readRef(m.evalOperand(op[0]), vax.L)
			base := m.evalOperand(op[1])
			d := m.evalBranch(op[2])
			var bit uint32
			if base.kind == refReg {
				if pos > 31 {
					raise(vax.VecReserved, true)
				}
				bit = m.CPU.R[base.reg] >> pos & 1
			} else {
				b := m.readVirt(base.addr+pos>>3, 1)
				bit = b >> (pos & 7) & 1
			}
			if (bit != 0) == wantSet {
				m.branch(d)
			}
		}

	case vax.OpBBSSI, vax.OpBBCCI:
		// Interlocked test-and-set/clear. Instructions are atomic in
		// this simulator (the SMP driver interleaves whole
		// instructions), so the read-modify-write below is indivisible
		// with respect to other CPUs by construction; the distinct
		// opcodes exist so kernel spinlocks are explicit in the source
		// and carry the architecture's interlocked cost.
		setBit := info.Opcode == vax.OpBBSSI
		return func(m *Machine) {
			pos := m.readRef(m.evalOperand(op[0]), vax.L)
			base := m.evalOperand(op[1])
			d := m.evalBranch(op[2])
			var bit uint32
			if base.kind == refReg {
				if pos > 31 {
					raise(vax.VecReserved, true)
				}
				bit = m.CPU.R[base.reg] >> pos & 1
				if setBit {
					m.CPU.R[base.reg] |= 1 << pos
				} else {
					m.CPU.R[base.reg] &^= 1 << pos
				}
			} else {
				addr := base.addr + pos>>3
				b := m.readVirt(addr, 1)
				bit = b >> (pos & 7) & 1
				if setBit {
					b |= 1 << (pos & 7)
				} else {
					b &^= 1 << (pos & 7)
				}
				m.writeVirt(addr, 1, b)
			}
			// BBSSI branches when the bit WAS set, BBCCI when it was
			// clear — i.e. when the interlocked attempt failed to
			// change the lock's state in the caller's favour.
			if (bit != 0) == setBit {
				m.branch(d)
			}
		}

	case vax.OpAOBLSS, vax.OpAOBLEQ:
		orEqual := info.Opcode == vax.OpAOBLEQ
		return func(m *Machine) {
			limit := int32(m.readRef(m.evalOperand(op[0]), vax.L))
			idx := m.evalOperand(op[1])
			d := m.evalBranch(op[2])
			v := m.addCC(m.readRef(idx, vax.L), 1, vax.L)
			m.writeRef(idx, vax.L, v)
			if int32(v) < limit || (orEqual && int32(v) == limit) {
				m.branch(d)
			}
		}
	case vax.OpSOBGEQ, vax.OpSOBGTR:
		strict := info.Opcode == vax.OpSOBGTR
		return func(m *Machine) {
			idx := m.evalOperand(op[0])
			d := m.evalBranch(op[1])
			v := m.subCC(m.readRef(idx, vax.L), 1, vax.L)
			m.writeRef(idx, vax.L, v)
			if int32(v) > 0 || (!strict && int32(v) == 0) {
				m.branch(d)
			}
		}
	case vax.OpACBL:
		return func(m *Machine) {
			limit := int32(m.readRef(m.evalOperand(op[0]), vax.L))
			add := int32(m.readRef(m.evalOperand(op[1]), vax.L))
			idx := m.evalOperand(op[2])
			d := m.evalBranch(op[3])
			v := m.addCC(m.readRef(idx, vax.L), uint32(add), vax.L)
			m.writeRef(idx, vax.L, v)
			if (add >= 0 && int32(v) <= limit) || (add < 0 && int32(v) >= limit) {
				m.branch(d)
			}
		}
	case vax.OpCASEL:
		return func(m *Machine) {
			sel := m.readRef(m.evalOperand(op[0]), vax.L)
			base := m.readRef(m.evalOperand(op[1]), vax.L)
			limit := m.readRef(m.evalOperand(op[2]), vax.L)
			tbl := m.CPU.R[vax.PC]
			idx := sel - base
			if idx <= limit {
				// The displacement table lives in the instruction
				// stream; the microcode reads it as data.
				disp := m.readVirt(tbl+2*idx, 2)
				m.CPU.R[vax.PC] = tbl + uint32(int32(int16(disp)))
			} else {
				m.CPU.R[vax.PC] = tbl + 2*(limit+1)
			}
			m.flushIBuf()
		}

	case vax.OpMOVC3:
		return execMOVC3(op)
	case vax.OpCALLS:
		return execCALLS(op)
	case vax.OpCHMK:
		return func(m *Machine) {
			code := m.readRef(m.evalOperand(op[0]), vax.W)
			raise(vax.VecCHMK, false, code)
		}
	case vax.OpMTPR:
		return execMTPR(op)
	case vax.OpMFPR:
		return execMFPR(op)

	default:
		// Table entries without semantics would be a programming error;
		// fail at microstore load time, not at run time.
		panic("micro: no stock microroutine for " + info.Name)
	}
}

func condBranch(spec vax.OperandSpec, cond func(psl uint32) bool) func(*Machine) {
	return func(m *Machine) {
		d := m.evalBranch(spec)
		if cond(m.CPU.PSL) {
			m.branch(d)
		}
	}
}

func logic2(op []vax.OperandSpec, f func(a, b uint32) uint32) func(*Machine) {
	w := op[0].Width
	return func(m *Machine) {
		a := m.readRef(m.evalOperand(op[0]), w)
		dst := m.evalOperand(op[1])
		b := m.readRef(dst, w)
		r := truncate(f(a, b), w)
		m.writeRef(dst, w, r)
		m.ccNZ(r, w)
	}
}

func logic3(op []vax.OperandSpec, f func(a, b uint32) uint32) func(*Machine) {
	w := op[0].Width
	return func(m *Machine) {
		a := m.readRef(m.evalOperand(op[0]), w)
		b := m.readRef(m.evalOperand(op[1]), w)
		dst := m.evalOperand(op[2])
		r := truncate(f(a, b), w)
		m.writeRef(dst, w, r)
		m.ccNZ(r, w)
	}
}

// carryChainCC implements ADWC/SBWC: add/subtract with the carry bit as
// a third operand, setting the full condition codes.
func (m *Machine) carryChainCC(a, b uint32, subtract bool) uint32 {
	cin := uint64(0)
	if m.CPU.PSL&vax.PSLC != 0 {
		cin = 1
	}
	var r uint32
	psl := m.CPU.PSL &^ (vax.PSLN | vax.PSLZ | vax.PSLV | vax.PSLC)
	if subtract {
		r = a - b - uint32(cin)
		if uint64(b)+cin > uint64(a) {
			psl |= vax.PSLC
		}
		if ((a^b)&(a^r))>>31 != 0 {
			psl |= vax.PSLV
		}
	} else {
		sum := uint64(a) + uint64(b) + cin
		r = uint32(sum)
		if sum > 0xFFFFFFFF {
			psl |= vax.PSLC
		}
		if (^(a^b)&(a^r))>>31 != 0 {
			psl |= vax.PSLV
		}
	}
	if r == 0 {
		psl |= vax.PSLZ
	}
	if int32(r) < 0 {
		psl |= vax.PSLN
	}
	m.CPU.PSL = psl
	return r
}

// evalBranch fetches a branch displacement operand, sign-extended.
func (m *Machine) evalBranch(spec vax.OperandSpec) int32 {
	switch spec.Width {
	case vax.B:
		return int32(int8(m.fetchByte()))
	case vax.W:
		return int32(int16(m.fetchWord()))
	}
	raise(vax.VecReserved, true)
	return 0
}

// branch adjusts PC by a taken branch displacement.
func (m *Machine) branch(disp int32) {
	m.CPU.R[vax.PC] += uint32(disp)
	m.flushIBuf()
}

// ---- condition-code helpers ----

func (m *Machine) ccNZ(v uint32, w vax.Width) {
	psl := m.CPU.PSL &^ (vax.PSLN | vax.PSLZ | vax.PSLV)
	if truncate(v, w) == 0 {
		psl |= vax.PSLZ
	}
	if signExtend(v, w) < 0 {
		psl |= vax.PSLN
	}
	m.CPU.PSL = psl
}

func (m *Machine) addCC(a, b uint32, w vax.Width) uint32 {
	mask := widthMask(w)
	a, b = a&mask, b&mask
	sum := uint64(a) + uint64(b)
	r := uint32(sum) & mask
	psl := m.CPU.PSL &^ (vax.PSLN | vax.PSLZ | vax.PSLV | vax.PSLC)
	if r == 0 {
		psl |= vax.PSLZ
	}
	if signExtend(r, w) < 0 {
		psl |= vax.PSLN
	}
	if sum > uint64(mask) {
		psl |= vax.PSLC
	}
	sa, sb, sr := signExtend(a, w) < 0, signExtend(b, w) < 0, signExtend(r, w) < 0
	if sa == sb && sr != sa {
		psl |= vax.PSLV
	}
	m.CPU.PSL = psl
	return r
}

// subCC computes a-b with VAX SUB/DEC/MNEG condition codes (C = borrow).
func (m *Machine) subCC(a, b uint32, w vax.Width) uint32 {
	mask := widthMask(w)
	a, b = a&mask, b&mask
	r := (a - b) & mask
	psl := m.CPU.PSL &^ (vax.PSLN | vax.PSLZ | vax.PSLV | vax.PSLC)
	if r == 0 {
		psl |= vax.PSLZ
	}
	if signExtend(r, w) < 0 {
		psl |= vax.PSLN
	}
	if b > a {
		psl |= vax.PSLC
	}
	sa, sb, sr := signExtend(a, w) < 0, signExtend(b, w) < 0, signExtend(r, w) < 0
	if sa != sb && sr != sa {
		psl |= vax.PSLV
	}
	m.CPU.PSL = psl
	return r
}

// cmpCC sets codes for CMP (V cleared, C = unsigned less).
func (m *Machine) cmpCC(a, b uint32, w vax.Width) {
	mask := widthMask(w)
	a, b = a&mask, b&mask
	psl := m.CPU.PSL &^ (vax.PSLN | vax.PSLZ | vax.PSLV | vax.PSLC)
	if a == b {
		psl |= vax.PSLZ
	}
	if signExtend(a, w) < signExtend(b, w) {
		psl |= vax.PSLN
	}
	if a < b {
		psl |= vax.PSLC
	}
	m.CPU.PSL = psl
}

func (m *Machine) mulCC(a, b uint32) uint32 {
	prod := int64(int32(a)) * int64(int32(b))
	r := uint32(prod)
	m.ccNZ(r, vax.L)
	m.CPU.PSL &^= vax.PSLC
	if prod != int64(int32(r)) {
		m.CPU.PSL |= vax.PSLV
	}
	return r
}

func (m *Machine) divCC(dividend, divisor uint32) uint32 {
	if divisor == 0 {
		m.CPU.PSL |= vax.PSLV
		raise(vax.VecArithmetic, false, 1) // divide by zero
	}
	if dividend == 0x80000000 && divisor == 0xFFFFFFFF {
		m.CPU.PSL |= vax.PSLV
		raise(vax.VecArithmetic, false, 2) // integer overflow
	}
	r := uint32(int32(dividend) / int32(divisor))
	m.ccNZ(r, vax.L)
	m.CPU.PSL &^= vax.PSLC
	return r
}

func widthMask(w vax.Width) uint32 {
	switch w {
	case vax.B:
		return 0xFF
	case vax.W:
		return 0xFFFF
	default:
		return 0xFFFFFFFF
	}
}
