package micro

import (
	"testing"

	"atum/internal/vax"
)

// benchLoop is a register/memory workout: ~10 instructions per
// iteration of the inner loop, mixing ALU, loads and stores.
const benchLoop = `
	.org 0x1000
start:	movl	#1000, r6
outer:	moval	buf, r1
	movl	#16, r2
inner:	movl	(r1), r3
	addl2	r6, r3
	movl	r3, (r1)+
	sobgtr	r2, inner
	sobgtr	r6, outer
	halt
	.align	4
buf:	.space	64
`

// operandModesLoop exercises the specifiers benchLoop leaves out:
// byte, word and long displacement, displacement deferred,
// autoincrement deferred, indexed, B/W/L immediate and absolute, with
// word branches closing both loops. 77 instructions per outer pass.
const operandModesLoop = `
	.org 0x1000
start:	movl	#1000, r6		; long immediate
	moval	ptrs, r8
outer:	moval	buf, r1
	moval	ptrs, r2
	clrl	r3
inner:	movl	4(r1), r5		; byte displacement
	addl2	@(r2)+, r5		; autoincrement deferred
	addl2	@4(r8), r5		; displacement deferred
	addl2	buf[r3], r5		; indexed, PC-relative base
	addl2	(r1)[r3], r5		; indexed, register-deferred base
	movl	r5, @#cell		; absolute
	movw	#0x1234, 200(r1)	; word immediate, word displacement
	movb	#0x9a, 100000(r1)	; byte immediate, long displacement
	acbl	#7, #1, r3, inner	; word branch
	brw	next			; word branch
next:	sobgtr	r6, outer
	halt
	.align	4
cell:	.long	0
ptrs:	.long	buf, buf+4, buf+8, buf+12, buf+16, buf+20, buf+24, buf+28
buf:	.space	64
`

func benchMachine(tb testing.TB, src string) *Machine {
	tb.Helper()
	prog, err := vax.Assemble(src)
	if err != nil {
		tb.Fatal(err)
	}
	m, err := New(testConfig())
	if err != nil {
		tb.Fatal(err)
	}
	if err := m.Mem.LoadBytes(prog.Origin, prog.Bytes); err != nil {
		tb.Fatal(err)
	}
	m.CPU.R[vax.PC] = prog.MustSymbol("start")
	m.CPU.R[vax.SP] = 0xF000
	return m
}

// BenchmarkInterpreter measures raw simulation speed in simulated
// instructions per second (reported as instrs/op for one full program).
func BenchmarkInterpreter(b *testing.B) { benchmarkInterpreter(b, benchLoop) }

// BenchmarkInterpreterOperandModes is the same lane over the operand
// specifiers benchLoop does not use.
func BenchmarkInterpreterOperandModes(b *testing.B) { benchmarkInterpreter(b, operandModesLoop) }

func benchmarkInterpreter(b *testing.B, src string) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := benchMachine(b, src)
		b.StartTimer()
		if _, err := m.Run(0); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(m.Instrs), "instrs/op")
	}
}

// TestStepAllocs pins the interpreter's steady state at zero heap
// allocations per instruction over every operand mode, with a hook on
// every event class, through Step and through Run's loop: an escaping
// operand, a boxed fetcher or a handler that escapes would show.
func TestStepAllocs(t *testing.T) {
	m := benchMachine(t, operandModesLoop)
	var n uint64
	for ev := Event(0); ev < NumEvents; ev++ {
		m.AddHook(ev, func(_ *Machine, _ Access) { n++ })
	}
	if _, err := m.Run(200); err != nil { // warm up the undo log
		t.Fatal(err)
	}
	var err error
	allocs := testing.AllocsPerRun(2000, func() {
		if e := m.Step(); e != nil {
			err = e
		}
	})
	runAllocs := testing.AllocsPerRun(500, func() {
		if _, e := m.Run(20); e != nil {
			err = e
		}
	})
	if err != nil || m.Halted() {
		t.Fatalf("step: err=%v halted=%v", err, m.Halted())
	}
	if allocs != 0 {
		t.Errorf("%v allocs per Step, want 0", allocs)
	}
	if runAllocs != 0 {
		t.Errorf("%v allocs per Run(20), want 0", runAllocs)
	}
	if n == 0 {
		t.Error("hooks saw no events")
	}
}

// BenchmarkInterpreterWithHooks measures the hook-dispatch overhead with
// a counting hook on every event class.
func BenchmarkInterpreterWithHooks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := benchMachine(b, benchLoop)
		var n uint64
		for ev := Event(0); ev < NumEvents; ev++ {
			m.AddHook(ev, func(_ *Machine, _ Access) { n++ })
		}
		b.StartTimer()
		if _, err := m.Run(0); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(n), "events/op")
	}
}

// BenchmarkStepOverhead isolates the per-instruction dispatch cost.
func BenchmarkStepOverhead(b *testing.B) {
	prog, err := vax.Assemble("\t.org 0x1000\nstart:\tbrb start\n")
	if err != nil {
		b.Fatal(err)
	}
	m, err := New(testConfig())
	if err != nil {
		b.Fatal(err)
	}
	if err := m.Mem.LoadBytes(prog.Origin, prog.Bytes); err != nil {
		b.Fatal(err)
	}
	m.CPU.R[vax.PC] = prog.Origin
	m.CPU.R[vax.SP] = 0xF000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Step(); err != nil {
			b.Fatal(err)
		}
	}
}
