package kernel

import (
	"fmt"
	"strings"
	"testing"

	"atum/internal/micro"
	"atum/internal/vax"
)

func asm(t *testing.T, src string) *vax.Program {
	t.Helper()
	p, err := vax.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return p
}

// boot builds a system with the given programs, finalizes and runs it.
func boot(t *testing.T, cfg Config, progs ...*vax.Program) *System {
	t.Helper()
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range progs {
		if _, err := s.Spawn("p", p, 32); err != nil {
			t.Fatalf("spawn %d: %v", i, err)
		}
	}
	if err := s.Finalize(); err != nil {
		t.Fatal(err)
	}
	reason, err := s.Run(50_000_000)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, s.M.State())
	}
	if reason != micro.StopHalt {
		t.Fatalf("run stopped early: %v\n%s", reason, s.M.State())
	}
	return s
}

const helloSrc = `
	.org	0x200
start:	moval	msg, r1
	movl	#6, r2
	chmk	#1		; write
	chmk	#0		; exit
msg:	.ascii	"hello\n"
`

func TestSingleProcessHello(t *testing.T) {
	s := boot(t, DefaultConfig(), asm(t, helloSrc))
	if got := s.Console(); got != "hello\n" {
		t.Errorf("console = %q, want %q", got, "hello\n")
	}
	st, err := s.State(s.Procs[0])
	if err != nil {
		t.Fatal(err)
	}
	if st != ProcDead {
		t.Errorf("process state = %d, want dead", st)
	}
}

func TestGetpid(t *testing.T) {
	// Each process prints 'A'+pid once.
	src := `
	.org	0x200
start:	chmk	#4		; getpid -> r0
	addl2	#0x40, r0	; 'A'-1+pid
	movb	r0, ch
	moval	ch, r1
	movl	#1, r2
	chmk	#1
	chmk	#0
ch:	.byte	0
`
	s := boot(t, DefaultConfig(), asm(t, src), asm(t, src), asm(t, src))
	got := s.Console()
	if len(got) != 3 {
		t.Fatalf("console = %q, want 3 chars", got)
	}
	for _, c := range []string{"A", "B", "C"} {
		if !strings.Contains(got, c) {
			t.Errorf("console %q missing %s", got, c)
		}
	}
}

func TestYieldInterleaving(t *testing.T) {
	// Two processes alternate voluntarily; output must interleave.
	mk := func(ch byte) string {
		return `
	.org	0x200
start:	movl	#5, r6
loop:	movb	#` + fmt.Sprintf("%d", '0'+ch) + `, ch
	moval	ch, r1
	movl	#1, r2
	chmk	#1
	chmk	#3		; yield
	sobgtr	r6, loop
	chmk	#0
ch:	.byte	0
`
	}
	s := boot(t, DefaultConfig(), asm(t, mk(1)), asm(t, mk(2)))
	got := s.Console()
	if len(got) != 10 {
		t.Fatalf("console = %q, want 10 chars", got)
	}
	// With strict alternation via yield the streams interleave exactly.
	if !strings.Contains(got, "12") && !strings.Contains(got, "21") {
		t.Errorf("no interleaving in %q", got)
	}
}

func TestPreemptiveScheduling(t *testing.T) {
	// CPU-bound processes with no yields; a short quantum must interleave
	// their outputs.
	mk := func(ch byte) string {
		return `
	.org	0x200
start:	movl	#40, r6
loop:	movl	#300, r7
spin:	sobgtr	r7, spin	; burn cycles
	movb	#` + fmt.Sprintf("%d", '0'+ch) + `, ch
	moval	ch, r1
	movl	#1, r2
	chmk	#1
	sobgtr	r6, loop
	chmk	#0
ch:	.byte	0
`
	}
	cfg := DefaultConfig()
	cfg.ICRCycles = 2000
	cfg.QuantumTicks = 2
	s := boot(t, cfg, asm(t, mk(1)), asm(t, mk(2)))
	got := s.Console()
	if len(got) != 80 {
		t.Fatalf("console length = %d, want 80", len(got))
	}
	// Preemption means neither process's output is contiguous.
	if strings.Contains(got, strings.Repeat("1", 40)) || strings.Contains(got, strings.Repeat("2", 40)) {
		t.Errorf("no preemption visible: %q", got)
	}
}

func TestDemandZeroStackGrowth(t *testing.T) {
	// Touch stack pages well below the initially mapped top.
	src := `
	.org	0x200
start:	movl	#20, r6		; 20 pushes of 512 bytes apart
	movl	sp, r1
loop:	subl2	#512, r1
	movl	r6, (r1)	; touch a new stack page (faults, demand-zero)
	sobgtr	r6, loop
	moval	ok, r1
	movl	#3, r2
	chmk	#1
	chmk	#0
ok:	.ascii	"ok\n"
`
	cfg := DefaultConfig()
	cfg.MaxStackPages = 64
	s := boot(t, cfg, asm(t, src))
	if got := s.Console(); got != "ok\n" {
		t.Errorf("console = %q", got)
	}
	if s.M.MMU.Stats.Faults == 0 {
		t.Error("no page faults occurred; demand paging untested")
	}
}

// TestPushStackGrowth grows the user stack on demand with PUSHL and
// with MOVL to -(SP). Each stack-page fault restarts the push with SP
// where it was, so 600 pushes then 600 pops return SP to its start and
// pop back the sum of what was pushed. The exit status carries both:
// the SP drift in bytes above bit 20, the sum below.
func TestPushStackGrowth(t *testing.T) {
	for _, tc := range []struct{ name, push string }{
		{"pushl", "pushl\tr6"},
		{"autodec", "movl\tr6, -(sp)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := `
	.org	0x200
start:	movl	sp, r7		; SP at entry
	movl	#600, r6
pu:	` + tc.push + `
	sobgtr	r6, pu
	clrl	r8
	movl	#600, r6
po:	addl2	(sp)+, r8	; sum of what was pushed
	sobgtr	r6, po
	subl3	sp, r7, r1	; SP drift
	ashl	#20, r1, r1
	bisl2	r8, r1
	chmk	#0
`
			s := boot(t, DefaultConfig(), asm(t, src))
			st, err := s.ExitStatus(s.Procs[0])
			if err != nil {
				t.Fatal(err)
			}
			if drift, sum := st>>20, st&(1<<20-1); drift != 0 || sum != 600*601/2 {
				t.Errorf("exit status %#x: SP drift %d bytes, sum %d; want 0 and %d", st, drift, sum, 600*601/2)
			}
			if _, faults, _, err := s.Rusage(s.Procs[0]); err != nil || faults == 0 {
				t.Errorf("stack faults = %d (err %v); the stack never grew", faults, err)
			}
		})
	}
}

func TestStackOverflowKilled(t *testing.T) {
	// Run past the P1 window: the process dies, the system still halts.
	src := `
	.org	0x200
start:	movl	sp, r1
loop:	subl2	#512, r1
	movl	#1, (r1)
	brb	loop		; runs off the bottom of the stack window
`
	cfg := DefaultConfig()
	cfg.MaxStackPages = 8
	s := boot(t, cfg, asm(t, src))
	st, _ := s.State(s.Procs[0])
	if st != ProcDead {
		t.Errorf("runaway process not killed: state=%d", st)
	}
}

func TestSbrk(t *testing.T) {
	src := `
	.org	0x200
start:	movl	#4, r1
	chmk	#2		; sbrk(4 pages) -> r0 = old break
	movl	r0, r7
	; write a marker into each new page, read it back
	movl	#4, r6
	movl	r7, r8
fill:	movl	#0x5a5a5a5a, (r8)
	addl2	#512, r8
	sobgtr	r6, fill
	movl	(r7), r9
	cmpl	r9, #0x5a5a5a5a
	bneq	bad
	moval	ok, r1
	movl	#3, r2
	chmk	#1
bad:	chmk	#0
ok:	.ascii	"ok\n"
`
	s := boot(t, DefaultConfig(), asm(t, src))
	if got := s.Console(); got != "ok\n" {
		t.Errorf("console = %q", got)
	}
}

func TestNullDereferenceKilled(t *testing.T) {
	src := `
	.org	0x200
start:	clrl	r1
	movl	(r1), r2	; *NULL -> ACV -> killed
	moval	no, r1
	movl	#2, r2
	chmk	#1		; must not run
	chmk	#0
no:	.ascii	"no"
`
	s := boot(t, DefaultConfig(), asm(t, src))
	if got := s.Console(); got != "" {
		t.Errorf("console = %q, want empty", got)
	}
	st, _ := s.State(s.Procs[0])
	if st != ProcDead {
		t.Errorf("state = %d, want dead", st)
	}
}

func TestBadSyscallKilledOthersContinue(t *testing.T) {
	bad := `
	.org	0x200
start:	chmk	#99
	chmk	#0
`
	good := `
	.org	0x200
start:	moval	m, r1
	movl	#2, r2
	chmk	#1
	chmk	#0
m:	.ascii	"ok"
`
	s := boot(t, DefaultConfig(), asm(t, bad), asm(t, good))
	if got := s.Console(); got != "ok" {
		t.Errorf("console = %q, want \"ok\"", got)
	}
}

func TestDivideByZeroKilled(t *testing.T) {
	src := `
	.org	0x200
start:	divl3	#0, #7, r0
	chmk	#0
`
	s := boot(t, DefaultConfig(), asm(t, src))
	st, _ := s.State(s.Procs[0])
	if st != ProcDead {
		t.Errorf("state = %d, want dead", st)
	}
}

func TestFreeFramesAccounting(t *testing.T) {
	s, err := NewSystem(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Spawn("hello", asm(t, helloSrc), 8); err != nil {
		t.Fatal(err)
	}
	if err := s.Finalize(); err != nil {
		t.Fatal(err)
	}
	before, err := s.FreeFrames()
	if err != nil {
		t.Fatal(err)
	}
	if before == 0 {
		t.Fatal("no free frames after boot")
	}
	if _, err := s.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	after, _ := s.FreeFrames()
	// Exit reclaims the dead process's resident frames (image, stack,
	// and anything demand-mapped), so the pool must grow.
	if after <= before {
		t.Errorf("exit did not reclaim frames: %d -> %d", before, after)
	}
}

func TestSpawnValidation(t *testing.T) {
	s, err := NewSystem(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Origin in guard page.
	if _, err := s.Spawn("bad", asm(t, "\t.org 0\nstart: halt\n"), 4); err == nil {
		t.Error("spawn with origin 0 should fail")
	}
	// Run before finalize.
	if _, err := s.Run(1); err == nil {
		t.Error("Run before Finalize should fail")
	}
	// Finalize with no processes.
	if err := s.Finalize(); err == nil {
		t.Error("Finalize with no processes should fail")
	}
}

func TestKernelReferencesVisible(t *testing.T) {
	// Hook the machine and verify that kernel-mode references occur while
	// user processes run — the property ATUM exists to expose.
	s, err := NewSystem(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Spawn("hello", asm(t, helloSrc), 8); err != nil {
		t.Fatal(err)
	}
	if err := s.Finalize(); err != nil {
		t.Fatal(err)
	}
	var kernel, user, ptes, switches uint64
	s.M.AddHook(micro.EvIFetch, func(_ *micro.Machine, a micro.Access) {
		if a.Mode == vax.ModeUser {
			user++
		} else {
			kernel++
		}
	})
	s.M.AddHook(micro.EvPTERead, func(_ *micro.Machine, a micro.Access) { ptes++ })
	s.M.AddHook(micro.EvCtxSwitch, func(_ *micro.Machine, a micro.Access) { switches++ })
	if _, err := s.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	if kernel == 0 || user == 0 {
		t.Errorf("kernel=%d user=%d ifetches; both should be nonzero", kernel, user)
	}
	if ptes == 0 {
		t.Error("no PTE reads observed")
	}
	if switches == 0 {
		t.Error("no context switch observed (LDPCTX at minimum)")
	}
}
