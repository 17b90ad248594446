package micro

import (
	"testing"

	"atum/internal/vax"
)

func TestACBL(t *testing.T) {
	m := runSrc(t, `
	.org 0x1000
start:	clrl	r0
	movl	#2, r1		; index
aloop:	incl	r0
	acbl	#10, #3, r1, aloop	; index += 3 while <= 10
	halt
`)
	// index: 2 -> 5 -> 8 -> 11(stop): body runs 1 + 3 times? acbl adds
	// then tests: iterations where branch taken: 5,8,11<=10? 11>10 no.
	// body executes: initial pass + taken branches = 1+2 = ... count:
	// r0 increments before each acbl: passes with index 2,5,8 -> 3.
	if m.CPU.R[0] != 3 {
		t.Errorf("acbl iterations = %d, want 3", m.CPU.R[0])
	}
	if m.CPU.R[1] != 11 {
		t.Errorf("acbl final index = %d, want 11", m.CPU.R[1])
	}
}

func TestACBLNegativeStep(t *testing.T) {
	m := runSrc(t, `
	.org 0x1000
start:	clrl	r0
	movl	#9, r1
bloop:	incl	r0
	acbl	#1, #-4, r1, bloop	; index -= 4 while >= 1
	halt
`)
	// index: 9 -> 5 -> 1 -> -3(stop): 3 passes.
	if m.CPU.R[0] != 3 {
		t.Errorf("iterations = %d, want 3", m.CPU.R[0])
	}
}

func TestCaselOutOfRange(t *testing.T) {
	m := runSrc(t, `
	.org 0x1000
start:	movl	#9, r0
	casel	r0, #0, #1
ctab:	.word	c0-ctab
	.word	c1-ctab
	movl	#77, r1		; out-of-range falls through here
	halt
c0:	movl	#100, r1
	halt
c1:	movl	#101, r1
	halt
`)
	if m.CPU.R[1] != 77 {
		t.Errorf("fall-through r1 = %d, want 77", m.CPU.R[1])
	}
}

func TestRegisterByteWordMerge(t *testing.T) {
	m := runSrc(t, `
	.org 0x1000
start:	movl	#0x11223344, r0
	movb	#0x55, r0	; only low byte
	movl	#0x11223344, r1
	movw	#0x6677, r1	; only low word
	halt
`)
	if m.CPU.R[0] != 0x11223355 {
		t.Errorf("byte merge: %#x", m.CPU.R[0])
	}
	if m.CPU.R[1] != 0x11226677 {
		t.Errorf("word merge: %#x", m.CPU.R[1])
	}
}

func TestAutoIncDeferredAdvancesByFour(t *testing.T) {
	m := runSrc(t, `
	.org 0x1000
start:	moval	tab, r1
	movb	@(r1)+, r2	; byte via pointer; r1 += 4 regardless
	movb	@(r1)+, r3
	halt
tab:	.long	c1, c2
c1:	.byte	0xAA
c2:	.byte	0xBB
`)
	if m.CPU.R[2]&0xFF != 0xAA || m.CPU.R[3]&0xFF != 0xBB {
		t.Errorf("deferred values: %#x %#x", m.CPU.R[2], m.CPU.R[3])
	}
}

func TestMTPRStackPointerBanking(t *testing.T) {
	// Setting USP from kernel mode must not disturb the active kernel
	// SP; entering user mode activates it.
	m := runSrc(t, `
	.org 0x1000
start:	movl	#0xd000, r6
	mtpr	r6, #3		; USP = 0xd000
	mfpr	#3, r7		; read it back (banked)
	movl	sp, r8		; kernel SP unchanged
	halt
`)
	if m.CPU.R[7] != 0xD000 {
		t.Errorf("USP readback = %#x", m.CPU.R[7])
	}
	if m.CPU.R[8] != 0xF000 {
		t.Errorf("kernel SP disturbed: %#x", m.CPU.R[8])
	}
}

func TestUnalignedCrossPageAccess(t *testing.T) {
	// A longword spanning a 512-byte page boundary, mapping off: plain
	// memory, but exercises the byte-split path.
	m := runSrc(t, `
	.org 0x1000
start:	movl	#0xdeadbeef, val
	movl	val, r0
	halt
val	=	0x21fe	; 2 bytes below a page boundary
`)
	if m.CPU.R[0] != 0xDEADBEEF {
		t.Errorf("cross-page longword = %#x", m.CPU.R[0])
	}
}

func TestSPAutoIncrementUndoneOnFault(t *testing.T) {
	// A faulting instruction with an autoincrement side effect must
	// restore the register before the handler sees it; this validates
	// the undo log with a reserved-operand fault (write to immediate
	// is caught at decode... use PC-register operand instead).
	m := load(t, `
	.org 0x1000
start:	moval	data, r1
	movl	(r1)+, pc	; reserved: PC as register operand faults
	halt
handler: movl	r1, r9		; observe r1 in the handler
	halt
data:	.long	4
`)
	prog, _ := vax.Assemble(`
	.org 0x1000
start:	moval	data, r1
	movl	(r1)+, pc
	halt
handler: movl	r1, r9
	halt
data:	.long	4
`)
	setupSCB(t, m, map[uint16]uint32{vax.VecReserved: prog.MustSymbol("handler")})
	run(t, m)
	want := prog.MustSymbol("data")
	if m.CPU.R[9] != want {
		t.Errorf("r1 in handler = %#x, want %#x (autoincrement not undone)", m.CPU.R[9], want)
	}
}

// TestPushFaultRestoresSP pins push's undo: a user-mode push whose
// stack write faults (here past the end of RAM) restarts the
// instruction with SP where it was, so the handler sees USP unchanged.
func TestPushFaultRestoresSP(t *testing.T) {
	for _, tc := range []struct{ name, instr string }{
		{"pushl", "pushl\t#5"},
		{"pushal", "pushal\tdata"},
		{"jsb", "jsb\tsub"},
		{"calls", "calls\t#0, proc"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := `
	.org 0x1000
start:	` + tc.instr + `
	halt
sub:	rsb
proc:	.word	0
	ret
handler: mfpr	#3, r9		; USP as the handler sees it
	halt
data:	.long	0
`
			prog, err := vax.Assemble(src)
			if err != nil {
				t.Fatal(err)
			}
			m := load(t, src)
			setupSCB(t, m, map[uint16]uint32{vax.VecMachineCheck: prog.MustSymbol("handler")})
			usp := testConfig().MemSize + 0x100
			m.CPU.KSP = 0xF000
			m.CPU.R[vax.SP] = usp
			m.CPU.PSL = uint32(vax.ModeUser) << vax.PSLCurModShift
			run(t, m)
			if m.CPU.R[9] != usp {
				t.Errorf("USP in handler = %#x, want %#x (push not undone)", m.CPU.R[9], usp)
			}
		})
	}
}

// TestPopFaultRestoresRegisters pins pop's undo: an instruction whose
// stack pop faults after earlier pops succeeded (here the next pop reads
// past the end of RAM) restarts with SP, every register it had already
// popped into and PSL back at their values before the instruction. The
// handler records the kernel SP it was entered with and the USP; the
// exception frame at that SP holds the restart PC and the saved PSL.
func TestPopFaultRestoresRegisters(t *testing.T) {
	top := testConfig().MemSize
	user := uint32(vax.ModeUser) << vax.PSLCurModShift
	for _, tc := range []struct {
		name, instr string
		psl, sp     uint32
		regs        map[int]uint32    // register values before the instruction
		mem         map[uint32]uint32 // longwords on the stack being popped
	}{
		// R0 pops from the last longword of RAM; R1's pop faults.
		{name: "popr", instr: "popr\t#0x03", psl: user | vax.PSLZ, sp: top - 4,
			regs: map[int]uint32{0: 0xaaaa, 1: 0xbbbb}},
		// A CALLS frame saving R0 and R1 whose last longword is past
		// RAM: SP, AP, FP, PC and R0 are written before R1's pop faults.
		{name: "ret", instr: "ret", psl: user | vax.PSLC, sp: 0x8000,
			regs: map[int]uint32{0: 0xaaaa, 1: 0xbbbb, vax.AP: 0x5555, vax.FP: top - 24},
			mem:  map[uint32]uint32{top - 20: 0x3 << 16, top - 16: 0x1111, top - 12: 0x2222, top - 8: 0x3333, top - 4: 0x4444}},
		// REI pops the PC from the last longword of RAM; the PSL pop faults.
		{name: "rei", instr: "rei", psl: vax.PSLN, sp: top - 4,
			mem: map[uint32]uint32{top - 4: 0x1234}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := `
	.org 0x1000
start:	` + tc.instr + `
	halt
handler: movl	sp, r8		; kernel SP: the exception frame
	mfpr	#3, r9		; USP as the handler sees it
	halt
`
			prog, err := vax.Assemble(src)
			if err != nil {
				t.Fatal(err)
			}
			m := load(t, src)
			setupSCB(t, m, map[uint16]uint32{vax.VecMachineCheck: prog.MustSymbol("handler")})
			for a, v := range tc.mem {
				if err := m.Mem.Store32(a, v); err != nil {
					t.Fatal(err)
				}
			}
			for r, v := range tc.regs {
				m.CPU.R[r] = v
			}
			m.CPU.KSP = 0xF000
			m.CPU.R[vax.SP] = tc.sp
			m.CPU.PSL = tc.psl
			run(t, m)

			frame := m.CPU.R[8]
			if tc.psl&vax.PSLCurModMask != 0 { // user mode: SP is the USP
				if m.CPU.R[9] != tc.sp {
					t.Errorf("USP in handler = %#x, want %#x", m.CPU.R[9], tc.sp)
				}
			} else if frame != tc.sp-8 {
				t.Errorf("kernel SP in handler = %#x, want %#x (the PSL and PC pushed below SP %#x)", frame, tc.sp-8, tc.sp)
			}
			for r, v := range tc.regs {
				if m.CPU.R[r] != v {
					t.Errorf("R%d = %#x after the fault, want %#x", r, m.CPU.R[r], v)
				}
			}
			pc, _ := m.Mem.Load32(frame)
			psl, _ := m.Mem.Load32(frame + 4)
			if pc != prog.MustSymbol("start") || psl != tc.psl {
				t.Errorf("exception frame PC, PSL = %#x, %#x; want %#x, %#x", pc, psl, prog.MustSymbol("start"), tc.psl)
			}
		})
	}
}

func TestJmpIndexed(t *testing.T) {
	m := runSrc(t, `
	.org 0x1000
start:	movl	#1, r2
	jmp	@jtab[r2]	; jump through table entry 1
	halt
t0:	movl	#10, r0
	halt
t1:	movl	#11, r0
	halt
	.align	4
jtab:	.long	t0, t1
`)
	if m.CPU.R[0] != 11 {
		t.Errorf("indexed jump landed wrong: r0=%d", m.CPU.R[0])
	}
}

func TestDiskDeviceRoundTrip(t *testing.T) {
	m := runSrc(t, `
	.org 0x1000
start:	; write a pattern into frame 8 (pa 0x1000.. wait that's code;
	; use frame 16 = pa 0x2000)
	movl	#0x2000, r1
	movl	#128, r2
	movl	#0xcafe0000, r3
w:	movl	r3, (r1)+
	incl	r3
	sobgtr	r2, w
	; write frame 16 to disk block 5
	mtpr	#5, #40
	mtpr	#0x2000, #41
	mtpr	#1, #42
	; clobber the frame
	movl	#0x2000, r1
	movl	#128, r2
c:	clrl	(r1)+
	sobgtr	r2, c
	; read it back
	mtpr	#5, #40
	mtpr	#0x2000, #41
	mtpr	#2, #42
	movl	@#0x2000, r4
	movl	@#0x21fc, r5
	halt
`)
	if m.CPU.R[4] != 0xCAFE0000 {
		t.Errorf("disk readback first = %#x", m.CPU.R[4])
	}
	if m.CPU.R[5] != 0xCAFE0000+127 {
		t.Errorf("disk readback last = %#x", m.CPU.R[5])
	}
	r, w := m.DiskStats()
	if r != 1 || w != 1 {
		t.Errorf("disk stats r=%d w=%d", r, w)
	}
}

func TestReadingNeverWrittenDiskBlockYieldsZeros(t *testing.T) {
	m := runSrc(t, `
	.org 0x1000
start:	movl	#0xffffffff, @#0x2000
	mtpr	#99, #40
	mtpr	#0x2000, #41
	mtpr	#2, #42		; read untouched block
	movl	@#0x2000, r0
	halt
`)
	if m.CPU.R[0] != 0 {
		t.Errorf("unwritten block = %#x, want 0", m.CPU.R[0])
	}
}
