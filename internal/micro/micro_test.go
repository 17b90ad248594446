package micro

import (
	"slices"
	"strings"
	"testing"

	"atum/internal/vax"
)

// testConfig is a small machine for unit tests: 1 MB, mapping off.
func testConfig() Config {
	return Config{MemSize: 1 << 20, ReservedSize: 0, TBEntries: 64, Costs: DefaultCosts()}
}

// load assembles src and loads it into a fresh machine at its origin,
// with PC at the "start" symbol (or the origin) and SP in free memory.
func load(t *testing.T, src string) *Machine {
	t.Helper()
	prog, err := vax.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	m, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Mem.LoadBytes(prog.Origin, prog.Bytes); err != nil {
		t.Fatal(err)
	}
	entry := prog.Origin
	if s, ok := prog.Symbol("start"); ok {
		entry = s
	}
	m.CPU.R[vax.PC] = entry
	m.CPU.R[vax.SP] = 0xF000
	return m
}

// run executes until HALT, failing the test on machine checks or budget
// exhaustion.
func run(t *testing.T, m *Machine) {
	t.Helper()
	reason, err := m.Run(1_000_000)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, m.State())
	}
	if reason != StopHalt {
		t.Fatalf("run stopped: %v\n%s", reason, m.State())
	}
}

// runSrc is the common assemble+load+run helper.
func runSrc(t *testing.T, src string) *Machine {
	t.Helper()
	m := load(t, src)
	run(t, m)
	return m
}

func TestMovAndArithmetic(t *testing.T) {
	m := runSrc(t, `
	.org 0x1000
start:	movl	#100, r0
	addl3	r0, #23, r1	; r1 = 123
	subl3	#23, r1, r2	; r2 = 100
	mull3	r2, #3, r3	; r3 = 300
	divl3	#4, r3, r4	; r4 = 75
	mnegl	r4, r5		; r5 = -75
	mcoml	#0, r6		; r6 = 0xFFFFFFFF
	halt
`)
	neg75 := ^uint32(75) + 1
	want := map[int]uint32{0: 100, 1: 123, 2: 100, 3: 300, 4: 75, 5: neg75, 6: 0xFFFFFFFF}
	for r, v := range want {
		if m.CPU.R[r] != v {
			t.Errorf("r%d = %#x, want %#x", r, m.CPU.R[r], v)
		}
	}
}

func TestConditionCodes(t *testing.T) {
	// Carry from unsigned overflow.
	m := runSrc(t, `
	.org 0x1000
start:	movl	#0xffffffff, r0
	addl2	#1, r0
	movpsl	r1
	movl	#0x7fffffff, r2
	addl2	#1, r2		; signed overflow
	movpsl	r3
	cmpl	#3, #5
	movpsl	r4
	halt
`)
	if m.CPU.R[1]&(vax.PSLC|vax.PSLZ) != vax.PSLC|vax.PSLZ {
		t.Errorf("add carry/zero psl = %#x", m.CPU.R[1])
	}
	if m.CPU.R[3]&vax.PSLV == 0 || m.CPU.R[3]&vax.PSLN == 0 {
		t.Errorf("signed overflow psl = %#x", m.CPU.R[3])
	}
	// 3 < 5: N (signed less) and C (unsigned less).
	if m.CPU.R[4]&vax.PSLN == 0 || m.CPU.R[4]&vax.PSLC == 0 {
		t.Errorf("cmp psl = %#x", m.CPU.R[4])
	}
}

func TestAddressingModes(t *testing.T) {
	m := runSrc(t, `
	.org 0x1000
start:	moval	data, r1
	movl	(r1), r2	; 11
	movl	4(r1), r3	; 22
	moval	data, r4
	movl	(r4)+, r5	; 11, r4 advances
	movl	(r4)+, r6	; 22
	moval	data+16, r7
	movl	-(r7), r8	; 44 (data+12)
	movl	#2, r9
	movl	data[r9], r10	; 33
	moval	ptr, r11
	movl	@(r11)+, r0	; *ptr = data -> 11
	halt
data:	.long	11, 22, 33, 44
ptr:	.long	data
`)
	checks := map[int]uint32{2: 11, 3: 22, 5: 11, 6: 22, 8: 44, 10: 33, 0: 11}
	for r, v := range checks {
		if m.CPU.R[r] != v {
			t.Errorf("r%d = %d, want %d", r, m.CPU.R[r], v)
		}
	}
}

func TestDeferredDisplacement(t *testing.T) {
	m := runSrc(t, `
	.org 0x1000
start:	moval	cell, r1
	movl	@0(r1), r2	; *(cell) -> value at data = 77
	halt
cell:	.long	data
data:	.long	77
`)
	if m.CPU.R[2] != 77 {
		t.Errorf("r2 = %d, want 77", m.CPU.R[2])
	}
}

func TestByteWordOps(t *testing.T) {
	m := runSrc(t, `
	.org 0x1000
start:	movb	#0xff, r0	; r0 low byte only
	movzbl	#0xff, r1	; 255
	cvtbl	#0xff, r2	; wait: literal 0xff won't fit short literal; immediate byte -1 -> sign extends
	movw	#0x8000, r3
	movzwl	r3, r4		; 0x8000
	cvtwl	r3, r5		; 0xffff8000
	cvtlb	#0x1ff, r6	; truncates to 0xff, V set
	movpsl	r7
	halt
`)
	if m.CPU.R[1] != 255 {
		t.Errorf("movzbl = %#x", m.CPU.R[1])
	}
	if m.CPU.R[2] != 0xFFFFFFFF {
		t.Errorf("cvtbl = %#x, want 0xffffffff", m.CPU.R[2])
	}
	if m.CPU.R[4] != 0x8000 {
		t.Errorf("movzwl = %#x", m.CPU.R[4])
	}
	if m.CPU.R[5] != 0xFFFF8000 {
		t.Errorf("cvtwl = %#x", m.CPU.R[5])
	}
	if m.CPU.R[6]&0xFF != 0xFF {
		t.Errorf("cvtlb = %#x", m.CPU.R[6])
	}
	if m.CPU.R[7]&vax.PSLV == 0 {
		t.Errorf("cvtlb overflow not flagged: psl=%#x", m.CPU.R[7])
	}
}

func TestLoopsAndBranches(t *testing.T) {
	m := runSrc(t, `
	.org 0x1000
start:	clrl	r0
	movl	#10, r1
loop:	addl2	r1, r0
	sobgtr	r1, loop	; r0 = 10+9+...+1 = 55
	clrl	r2
	clrl	r3
lp2:	addl2	#1, r2
	aoblss	#5, r3, lp2	; r3 counts to 5
	halt
`)
	if m.CPU.R[0] != 55 {
		t.Errorf("sum = %d, want 55", m.CPU.R[0])
	}
	if m.CPU.R[3] != 5 || m.CPU.R[2] != 5 {
		t.Errorf("aoblss: r2=%d r3=%d, want 5,5", m.CPU.R[2], m.CPU.R[3])
	}
}

func TestUnsignedBranches(t *testing.T) {
	m := runSrc(t, `
	.org 0x1000
start:	clrl	r0
	cmpl	#0xf0000000, #1	; unsigned: greater; signed: less
	bgtru	u_ok
	halt
u_ok:	incl	r0
	cmpl	#0xf0000000, #1
	blss	s_ok		; signed less
	halt
s_ok:	incl	r0
	halt
`)
	if m.CPU.R[0] != 2 {
		t.Errorf("branch path r0 = %d, want 2", m.CPU.R[0])
	}
}

func TestSubroutines(t *testing.T) {
	m := runSrc(t, `
	.org 0x1000
start:	movl	#5, r0
	bsbw	double
	bsbw	double		; r0 = 20
	jsb	addone		; r0 = 21
	halt
double:	addl2	r0, r0
	rsb
addone:	incl	r0
	rsb
`)
	if m.CPU.R[0] != 21 {
		t.Errorf("r0 = %d, want 21", m.CPU.R[0])
	}
}

func TestCallsRet(t *testing.T) {
	m := runSrc(t, `
	.org 0x1000
start:	movl	#111, r2	; should survive the call (in entry mask)
	movl	#7, r6		; caller's r6 also in mask
	pushl	#30
	pushl	#12
	calls	#2, sum2
	halt

; sum2(a, b) returns a+b in r0; uses r2, r6 internally.
sum2:	.word	0x44	; entry mask: save r2, r6
	movl	4(ap), r2	; first arg
	movl	8(ap), r6	; second arg
	addl3	r2, r6, r0
	ret
`)
	if m.CPU.R[0] != 42 {
		t.Errorf("sum2 = %d, want 42", m.CPU.R[0])
	}
	if m.CPU.R[2] != 111 || m.CPU.R[6] != 7 {
		t.Errorf("saved registers clobbered: r2=%d r6=%d", m.CPU.R[2], m.CPU.R[6])
	}
	if m.CPU.R[vax.SP] != 0xF000 {
		t.Errorf("stack not balanced: sp=%#x want 0xf000", m.CPU.R[vax.SP])
	}
}

func TestPushrPopr(t *testing.T) {
	m := runSrc(t, `
	.org 0x1000
start:	movl	#1, r1
	movl	#2, r2
	movl	#3, r3
	pushr	#0x0e		; push r1,r2,r3
	clrl	r1
	clrl	r2
	clrl	r3
	popr	#0x0e
	halt
`)
	if m.CPU.R[1] != 1 || m.CPU.R[2] != 2 || m.CPU.R[3] != 3 {
		t.Errorf("popr restored r1=%d r2=%d r3=%d", m.CPU.R[1], m.CPU.R[2], m.CPU.R[3])
	}
	if m.CPU.R[vax.SP] != 0xF000 {
		t.Errorf("sp = %#x, want 0xf000", m.CPU.R[vax.SP])
	}
}

func TestMOVC3(t *testing.T) {
	m := runSrc(t, `
	.org 0x1000
start:	movc3	#13, src, dst
	halt
src:	.ascii	"hello, world!"
dst:	.space	16
`)
	prog, _ := vax.Assemble(`
	.org 0x1000
start:	movc3	#13, src, dst
	halt
src:	.ascii	"hello, world!"
dst:	.space	16
`)
	dst := prog.MustSymbol("dst")
	var got []byte
	for i := uint32(0); i < 13; i++ {
		b, err := m.DebugRead(dst+i, 1)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, byte(b))
	}
	if string(got) != "hello, world!" {
		t.Errorf("movc3 copied %q", got)
	}
	if m.CPU.R[0] != 0 {
		t.Errorf("r0 = %d after movc3, want 0", m.CPU.R[0])
	}
	if m.CPU.PSL&vax.PSLZ == 0 {
		t.Error("Z not set after movc3")
	}
}

func TestCasel(t *testing.T) {
	m := runSrc(t, `
	.org 0x1000
start:	movl	#2, r0
	casel	r0, #0, #3
table:	.word	c0-table
	.word	c1-table
	.word	c2-table
	.word	c3-table
	halt			; out of range falls through here
c0:	movl	#100, r1
	halt
c1:	movl	#101, r1
	halt
c2:	movl	#102, r1
	halt
c3:	movl	#103, r1
	halt
`)
	if m.CPU.R[1] != 102 {
		t.Errorf("casel selected %d, want 102", m.CPU.R[1])
	}
}

func TestBitBranches(t *testing.T) {
	m := runSrc(t, `
	.org 0x1000
start:	clrl	r0
	movl	#0x10, r1
	bbs	#4, r1, ok1
	halt
ok1:	incl	r0
	bbc	#3, r1, ok2
	halt
ok2:	incl	r0
	movl	#1, r2
	blbs	r2, ok3
	halt
ok3:	incl	r0
	moval	flags, r3
	bbs	#9, (r3), ok4	; bit 9 of memory field = byte 1 bit 1
	halt
ok4:	incl	r0
	halt
flags:	.byte	0, 2
`)
	if m.CPU.R[0] != 4 {
		t.Errorf("bit branch path r0 = %d, want 4", m.CPU.R[0])
	}
}

func TestAshl(t *testing.T) {
	m := runSrc(t, `
	.org 0x1000
start:	ashl	#4, #1, r0	; 16
	ashl	#-2, #64, r1	; 16
	movl	#-64, r2
	ashl	#-3, r2, r3	; -8
	halt
`)
	if m.CPU.R[0] != 16 || m.CPU.R[1] != 16 {
		t.Errorf("ashl: r0=%d r1=%d", m.CPU.R[0], m.CPU.R[1])
	}
	if int32(m.CPU.R[3]) != -8 {
		t.Errorf("arithmetic right shift = %d, want -8", int32(m.CPU.R[3]))
	}
}

func TestLogicalOps(t *testing.T) {
	m := runSrc(t, `
	.org 0x1000
start:	movl	#0x0f0f, r0
	bisl2	#0xf000, r0	; 0xff0f
	bicl2	#0x000f, r0	; 0xff00
	xorl3	#0x0ff0, r0, r1	; 0xf0f0
	halt
`)
	if m.CPU.R[0] != 0xFF00 {
		t.Errorf("r0 = %#x, want 0xff00", m.CPU.R[0])
	}
	if m.CPU.R[1] != 0xF0F0 {
		t.Errorf("r1 = %#x, want 0xf0f0", m.CPU.R[1])
	}
}

func TestEmulEdiv(t *testing.T) {
	m := runSrc(t, `
	.org 0x1000
start:	emul	#1000, #1000, #5, r0	; 1000005
	ediv	#7, #100, r1, r2	; q=14 r=2
	halt
`)
	if m.CPU.R[0] != 1000005 {
		t.Errorf("emul = %d", m.CPU.R[0])
	}
	if m.CPU.R[1] != 14 || m.CPU.R[2] != 2 {
		t.Errorf("ediv q=%d r=%d, want 14,2", m.CPU.R[1], m.CPU.R[2])
	}
}

// setupSCB installs a minimal SCB whose vectors all point at HALT, except
// any the caller overrides. Returns the SCB physical base.
func setupSCB(t *testing.T, m *Machine, overrides map[uint16]uint32) uint32 {
	t.Helper()
	const scb = 0x400
	haltAddr := uint32(0x500)
	if err := m.Mem.Store8(haltAddr, vax.OpHALT); err != nil {
		t.Fatal(err)
	}
	for v := uint32(0); v < 0x100; v += 4 {
		if err := m.Mem.Store32(scb+v, haltAddr); err != nil {
			t.Fatal(err)
		}
	}
	for v, h := range overrides {
		if err := m.Mem.Store32(scb+uint32(v), h); err != nil {
			t.Fatal(err)
		}
	}
	m.SCBB = scb
	return scb
}

func TestCHMKDispatchAndREI(t *testing.T) {
	m := load(t, `
	.org 0x1000
start:	chmk	#42
	movl	#1, r5		; resumed here after rei
	halt

; kernel handler: r4 = syscall code from stack, pop it, rei
handler: movl	(sp)+, r4
	rei
`)
	prog, _ := vax.Assemble(`
	.org 0x1000
start:	chmk	#42
	movl	#1, r5
	halt
handler: movl	(sp)+, r4
	rei
`)
	setupSCB(t, m, map[uint16]uint32{vax.VecCHMK: prog.MustSymbol("handler")})
	run(t, m)
	if m.CPU.R[4] != 42 {
		t.Errorf("syscall code = %d, want 42", m.CPU.R[4])
	}
	if m.CPU.R[5] != 1 {
		t.Errorf("did not resume after rei: r5=%d", m.CPU.R[5])
	}
}

func TestReservedOpcodeFaults(t *testing.T) {
	m, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// 0xFF is unimplemented.
	if err := m.Mem.Store8(0x1000, 0xFF); err != nil {
		t.Fatal(err)
	}
	setupSCB(t, m, nil)
	m.CPU.R[vax.PC] = 0x1000
	m.CPU.R[vax.SP] = 0xF000
	reason, err := m.Run(100)
	if err != nil || reason != StopHalt {
		t.Fatalf("reason=%v err=%v", reason, err)
	}
	// The SCB handler (halt) ran; the pushed PC should be the faulting
	// instruction (restartable fault).
	pushed, _ := m.DebugRead(m.CPU.R[vax.SP], 4)
	if pushed != 0x1000 {
		t.Errorf("pushed PC = %#x, want 0x1000", pushed)
	}
}

func TestArithmeticTrapDivZero(t *testing.T) {
	m := load(t, `
	.org 0x1000
start:	divl3	#0, #10, r0
	movl	#9, r9		; resumes here if handler returns
	halt
handler: movl	(sp)+, r8	; trap code
	rei
`)
	prog, _ := vax.Assemble(`
	.org 0x1000
start:	divl3	#0, #10, r0
	movl	#9, r9
	halt
handler: movl	(sp)+, r8
	rei
`)
	setupSCB(t, m, map[uint16]uint32{vax.VecArithmetic: prog.MustSymbol("handler")})
	run(t, m)
	if m.CPU.R[8] != 1 {
		t.Errorf("trap code = %d, want 1", m.CPU.R[8])
	}
	if m.CPU.R[9] != 9 {
		t.Error("did not resume after divide-by-zero trap")
	}
}

func TestMicrostorePatchWrap(t *testing.T) {
	m := load(t, `
	.org 0x1000
start:	incl	r0
	incl	r0
	halt
`)
	count := 0
	restore, err := m.Microstore.Wrap(vax.OpINCL, "incl-patched", 5, func(mm *Machine, old *Microroutine) {
		count++
		old.Exec(mm)
	})
	if err != nil {
		t.Fatal(err)
	}
	run(t, m)
	if count != 2 {
		t.Errorf("wrapped microroutine ran %d times, want 2", count)
	}
	if m.CPU.R[0] != 2 {
		t.Errorf("semantics broken by wrap: r0=%d", m.CPU.R[0])
	}
	restore()
	if m.Microstore.Lookup(vax.OpINCL).Name != "incl" {
		t.Error("restore did not reinstall stock microroutine")
	}
	if _, err := m.Microstore.Wrap(0xFF, "x", 0, nil); err == nil {
		t.Error("wrapping reserved opcode should fail")
	}
}

func TestHooksSeeReferences(t *testing.T) {
	m := load(t, `
	.org 0x1000
start:	movl	val, r0		; one data read
	movl	r0, val		; one data write
	halt
val:	.long	7
`)
	var reads, writes, fetches int
	m.AddHook(EvDRead, func(_ *Machine, a Access) { reads++ })
	m.AddHook(EvDWrite, func(_ *Machine, a Access) { writes++ })
	m.AddHook(EvIFetch, func(_ *Machine, a Access) {
		fetches++
		if a.VA%4 != 0 {
			t.Errorf("ifetch not longword aligned: %#x", a.VA)
		}
	})
	run(t, m)
	if reads != 1 || writes != 1 {
		t.Errorf("reads=%d writes=%d, want 1,1", reads, writes)
	}
	if fetches == 0 {
		t.Error("no ifetch events")
	}
}

func TestHookRemoveAndCycleCharging(t *testing.T) {
	m := load(t, `
	.org 0x1000
start:	incl	r0
	halt
`)
	remove := m.AddHook(EvIFetch, func(mm *Machine, a Access) { mm.ChargeCycles(100) })
	m.Step() // incl (1 ifetch refill at least)
	base := m.Cycles
	if base < 100 {
		t.Fatalf("hook cycles not charged: %d", base)
	}
	remove()
	remove() // idempotent
	m.Step()
	if m.Cycles-base >= 100 {
		t.Error("removed hook still charging")
	}
}

// TestHookRemovalCompacts: removing a hook takes its slot off the bus,
// so install/uninstall cycles (the monitor's trace on/off, the baseline
// tracers) do not leave every later event walking dead slots. The hooks
// that remain fire in installation order, and a hook removed mid-fire —
// by itself or by an earlier hook — does not run again.
func TestHookRemovalCompacts(t *testing.T) {
	m, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		m.AddHook(EvIFetch, func(*Machine, Access) {})()
	}
	if n := len(m.hooks[EvIFetch]); n != 0 {
		t.Fatalf("%d slots left after 100 add/remove cycles, want 0", n)
	}

	var order []string
	hook := func(name string) Hook { return func(*Machine, Access) { order = append(order, name) } }
	fire := func(want ...string) {
		t.Helper()
		order = nil
		m.fire(Access{Ev: EvIFetch})
		if !slices.Equal(order, want) {
			t.Fatalf("hooks ran %v, want %v", order, want)
		}
	}
	m.AddHook(EvIFetch, hook("a"))
	removeB := m.AddHook(EvIFetch, hook("b"))
	m.AddHook(EvIFetch, hook("c"))
	removeB()
	fire("a", "c")

	var removeD, removeE func()
	removeD = m.AddHook(EvIFetch, func(*Machine, Access) {
		order = append(order, "d")
		removeD()
		removeE()
	})
	m.AddHook(EvIFetch, hook("x"))
	removeE = m.AddHook(EvIFetch, hook("e"))
	fire("a", "c", "d", "x")
	fire("a", "c", "x")
	if n := len(m.hooks[EvIFetch]); n != 3 {
		t.Fatalf("%d slots for 3 live hooks", n)
	}
}

func TestIntervalTimerInterrupt(t *testing.T) {
	m := load(t, `
	.org 0x1000
start:	mtpr	#200, #26	; ICR: tick every 200 cycles
	mtpr	#0x40, #24	; ICCS: run
loop:	incl	r0
	brb	loop
tick:	movl	#1, r11
	mtpr	#0, #24		; stop clock
	halt
`)
	prog, _ := vax.Assemble(`
	.org 0x1000
start:	mtpr	#200, #26
	mtpr	#0x40, #24
loop:	incl	r0
	brb	loop
tick:	movl	#1, r11
	mtpr	#0, #24
	halt
`)
	setupSCB(t, m, map[uint16]uint32{vax.VecIntervalTimer: prog.MustSymbol("tick")})
	run(t, m)
	if m.CPU.R[11] != 1 {
		t.Error("timer interrupt never delivered")
	}
	if m.CPU.R[0] == 0 {
		t.Error("loop body never ran before interrupt")
	}
	if ipl := vax.IPL(m.CPU.PSL); ipl != vax.IPLTimer {
		t.Errorf("IPL in handler = %d, want %d", ipl, vax.IPLTimer)
	}
}

func TestSoftwareInterrupt(t *testing.T) {
	m := load(t, `
	.org 0x1000
start:	mtpr	#3, #20		; SIRR level 3
	incl	r1		; runs before the interrupt? no: interrupt
				; is taken at the next instruction boundary
	halt
soft:	movl	#1, r10
	halt
`)
	prog, _ := vax.Assemble(`
	.org 0x1000
start:	mtpr	#3, #20
	incl	r1
	halt
soft:	movl	#1, r10
	halt
`)
	setupSCB(t, m, map[uint16]uint32{uint16(0x80 + 4*3): prog.MustSymbol("soft")})
	run(t, m)
	if m.CPU.R[10] != 1 {
		t.Error("software interrupt not delivered")
	}
}

func TestTraceTrapTbit(t *testing.T) {
	m := load(t, `
	.org 0x1000
start:	incl	r0
	incl	r0
	incl	r0
	halt
trace:	incl	r9
	rei
`)
	prog, _ := vax.Assemble(`
	.org 0x1000
start:	incl	r0
	incl	r0
	incl	r0
	halt
trace:	incl	r9
	rei
`)
	setupSCB(t, m, map[uint16]uint32{vax.VecTraceTrap: prog.MustSymbol("trace")})
	m.CPU.PSL |= vax.PSLT
	run(t, m)
	if m.CPU.R[0] != 3 {
		t.Errorf("r0 = %d, want 3", m.CPU.R[0])
	}
	// One trace trap per traced instruction (the handler itself runs with
	// T clear; REI restores T).
	if m.CPU.R[9] != 3 {
		t.Errorf("trace traps = %d, want 3", m.CPU.R[9])
	}
}

func TestUserModeProtection(t *testing.T) {
	// Enter user mode via REI, then attempt a privileged instruction.
	m := load(t, `
	.org 0x1000
start:	movl	#0xe000, r0
	mtpr	r0, #3		; set USP
	pushl	#0x03000000	; PSL: user mode
	pushl	#user		; PC
	rei
user:	incl	r1
	mtpr	#0, #57		; TBIA: privileged -> fault
	incl	r2		; must not run
	halt
resfault: movl	#1, r10
	halt
`)
	prog, _ := vax.Assemble(`
	.org 0x1000
start:	movl	#0xe000, r0
	mtpr	r0, #3
	pushl	#0x03000000
	pushl	#user
	rei
user:	incl	r1
	mtpr	#0, #57
	incl	r2
	halt
resfault: movl	#1, r10
	halt
`)
	setupSCB(t, m, map[uint16]uint32{vax.VecReserved: prog.MustSymbol("resfault")})
	run(t, m)
	if m.CPU.R[1] != 1 {
		t.Error("user code did not run")
	}
	if m.CPU.R[10] != 1 {
		t.Error("privileged instruction fault not taken")
	}
	if m.CPU.R[2] != 0 {
		t.Error("instruction after fault executed")
	}
	// After the fault we are back in kernel mode on the kernel stack.
	if vax.CurMode(m.CPU.PSL) != vax.ModeKernel {
		t.Error("not in kernel mode after fault")
	}
}

func TestHaltInUserModeFaults(t *testing.T) {
	m := load(t, `
	.org 0x1000
start:	movl	#0xe000, r0
	mtpr	r0, #3
	pushl	#0x03000000
	pushl	#user
	rei
user:	halt			; privileged in user mode
resfault: movl	#7, r7
	halt
`)
	prog, _ := vax.Assemble(`
	.org 0x1000
start:	movl	#0xe000, r0
	mtpr	r0, #3
	pushl	#0x03000000
	pushl	#user
	rei
user:	halt
resfault: movl	#7, r7
	halt
`)
	setupSCB(t, m, map[uint16]uint32{vax.VecReserved: prog.MustSymbol("resfault")})
	run(t, m)
	if m.CPU.R[7] != 7 {
		t.Error("user-mode HALT did not fault")
	}
}

func TestREIToMorePrivilegedFaults(t *testing.T) {
	m := load(t, `
	.org 0x1000
start:	movl	#0xe000, r0
	mtpr	r0, #3
	pushl	#0x03000000	; to user mode
	pushl	#user
	rei
user:	pushl	#0		; forged kernel PSL
	pushl	#0x2000		; PC
	rei			; must fault
	halt
resfault: movl	#3, r3
	halt
`)
	prog, _ := vax.Assemble(`
	.org 0x1000
start:	movl	#0xe000, r0
	mtpr	r0, #3
	pushl	#0x03000000
	pushl	#user
	rei
user:	pushl	#0
	pushl	#0x2000
	rei
	halt
resfault: movl	#3, r3
	halt
`)
	setupSCB(t, m, map[uint16]uint32{vax.VecReserved: prog.MustSymbol("resfault")})
	run(t, m)
	if m.CPU.R[3] != 3 {
		t.Error("REI to kernel from user did not fault")
	}
}

func TestConsoleOutputViaTXDB(t *testing.T) {
	m := runSrc(t, `
	.org 0x1000
start:	mtpr	#'h', #35
	mtpr	#'i', #35
	halt
`)
	if got := string(m.Mem.Console()); got != "hi" {
		t.Errorf("console = %q, want %q", got, "hi")
	}
}

func TestDeterminism(t *testing.T) {
	src := `
	.org 0x1000
start:	movl	#50, r1
	clrl	r0
loop:	addl2	r1, r0
	movl	r0, scratch
	movl	scratch, r2
	sobgtr	r1, loop
	halt
scratch: .long	0
`
	run1 := runSrc(t, src)
	run2 := runSrc(t, src)
	if run1.Cycles != run2.Cycles || run1.Instrs != run2.Instrs {
		t.Errorf("nondeterministic: cycles %d vs %d, instrs %d vs %d",
			run1.Cycles, run2.Cycles, run1.Instrs, run2.Instrs)
	}
	if run1.CPU != run2.CPU {
		t.Error("register state differs between identical runs")
	}
}

func TestStateString(t *testing.T) {
	m := load(t, "\t.org 0x1000\nstart: halt\n")
	if s := m.State(); !strings.Contains(s, "pc=00001000") {
		t.Errorf("State() = %q", s)
	}
}
