// Package baseline implements the trace-collection techniques ATUM was
// compared against, over the same simulated machine, so that slowdown
// and capture completeness are measured rather than quoted:
//
//   - Inline software instrumentation (Pixie/ATOM-style): tracing code
//     compiled into the user program. Captures user references only —
//     the kernel is not instrumented — and costs a few instructions per
//     reference. (Address perturbation from code expansion is not
//     modelled; the technique is given its best case.)
//   - Trap-driven single-stepping (T-bit tracing): every user
//     instruction takes a trace-trap exception into a software handler
//     that decodes the instruction to recover its references. Costs
//     hundreds to thousands of cycles per instruction; kernel-mode
//     execution is not single-stepped.
//   - ATUM itself, adapted to the same interface for comparison runs.
package baseline

import (
	"fmt"

	"atum/internal/atum"
	"atum/internal/micro"
	"atum/internal/trace"
	"atum/internal/vax"
)

// Technique is a trace-collection method installable on a machine.
type Technique interface {
	Name() string
	// Install patches the machine and returns the live session.
	Install(m *micro.Machine) (Session, error)
}

// Session is an installed technique.
type Session interface {
	// Records returns everything captured so far.
	Records() []trace.Word
	// Uninstall removes the technique's patches.
	Uninstall()
}

// ---- inline software instrumentation ----

// Inline models compile/link-time instrumentation.
type Inline struct {
	// CostPerRef is the microcycle cost of the inserted tracing code per
	// captured reference (default 12 — about three inserted
	// instructions).
	CostPerRef uint32
}

func (Inline) Name() string { return "instrumentation" }

type inlineSession struct {
	recs    []trace.Word
	removes []func()
}

func (s *inlineSession) Records() []trace.Word { return s.recs }
func (s *inlineSession) Uninstall() {
	for _, rm := range s.removes {
		rm()
	}
}

// Install hooks user-mode references only: instrumentation lives inside
// the user program, so kernel execution, PTE traffic and context-switch
// activity are invisible to it.
func (t Inline) Install(m *micro.Machine) (Session, error) {
	cost := t.CostPerRef
	if cost == 0 {
		cost = 12
	}
	s := &inlineSession{}
	hook := func(mm *micro.Machine, a micro.Access) {
		if a.Mode != vax.ModeUser {
			return
		}
		mm.ChargeCycles(cost)
		// Micro-event classes and record kinds share their numbering
		// (pinned by TestEventKindMapping), as in the collector.
		s.recs = append(s.recs, trace.Pack(trace.Kind(a.Ev), a.VA, a.Width, a.PID, true, false, 0))
	}
	for _, ev := range []micro.Event{micro.EvIFetch, micro.EvDRead, micro.EvDWrite} {
		s.removes = append(s.removes, m.AddHook(ev, hook))
	}
	return s, nil
}

// ---- trap-driven (T-bit) tracing ----

// TrapDriven models single-step tracing: a trace-trap per user
// instruction into a handler that software-decodes the instruction.
type TrapDriven struct {
	// BaseCost is the per-instruction exception+handler overhead;
	// PerOperand is the added software-decode cost per operand
	// specifier. Defaults 1200 and 400 put the technique two orders of
	// magnitude above ATUM, matching contemporary reports of 100-1000x.
	BaseCost   uint32
	PerOperand uint32
}

func (TrapDriven) Name() string { return "trap-driven" }

type trapSession struct {
	recs     []trace.Word
	removes  []func()
	restores []func()
}

func (s *trapSession) Records() []trace.Word { return s.recs }
func (s *trapSession) Uninstall() {
	for _, rm := range s.removes {
		rm()
	}
	for _, r := range s.restores {
		r()
	}
}

// Install wraps every microroutine: the wrap charges the trap+decode
// cost for user-mode instructions (the microstore is how a T-bit
// mechanism would be modelled below the architecture), and hooks record
// the user references the handler would reconstruct.
func (t TrapDriven) Install(m *micro.Machine) (Session, error) {
	base := t.BaseCost
	if base == 0 {
		base = 1200
	}
	per := t.PerOperand
	if per == 0 {
		per = 400
	}
	s := &trapSession{}
	for op := 0; op < 256; op++ {
		info := vax.Instructions[op]
		if info == nil {
			continue
		}
		nops := uint32(len(info.Operands))
		restore, err := m.Microstore.Wrap(byte(op), info.Name+"+tbit", 0,
			func(mm *micro.Machine, old *micro.Microroutine) {
				if vax.CurMode(mm.CPU.PSL) == vax.ModeUser {
					mm.ChargeCycles(base + per*nops)
				}
				old.Exec(mm)
			})
		if err != nil {
			s.Uninstall()
			return nil, fmt.Errorf("baseline: wrapping %s: %w", info.Name, err)
		}
		s.restores = append(s.restores, restore)
	}
	hook := func(mm *micro.Machine, a micro.Access) {
		if a.Mode != vax.ModeUser {
			return
		}
		s.recs = append(s.recs, trace.Pack(trace.Kind(a.Ev), a.VA, a.Width, a.PID, true, false, 0))
	}
	for _, ev := range []micro.Event{micro.EvIFetch, micro.EvDRead, micro.EvDWrite} {
		s.removes = append(s.removes, m.AddHook(ev, hook))
	}
	return s, nil
}

// ---- ATUM adapter ----

// Atum adapts the real collector to the Technique interface.
type Atum struct {
	Opts atum.Options
}

func (Atum) Name() string { return "ATUM" }

type atumSession struct {
	col  *atum.Collector
	recs []trace.Word
}

func (s *atumSession) Records() []trace.Word {
	more, err := s.col.Extract()
	if err == nil {
		s.recs = append(s.recs, more...)
	}
	return s.recs
}

func (s *atumSession) Uninstall() { s.col.Uninstall() }

// Install attaches the real ATUM collector, draining full buffers into
// the session as samples complete.
func (t Atum) Install(m *micro.Machine) (Session, error) {
	opts := t.Opts
	s := &atumSession{}
	opts.OnFull = func(c *atum.Collector) {
		recs, err := c.Extract()
		if err != nil {
			panic(err)
		}
		s.recs = append(s.recs, recs...)
	}
	col, err := atum.Install(m, opts)
	if err != nil {
		return nil, err
	}
	s.col = col
	return s, nil
}

// ---- comparison harness ----

// Outcome is one technique's measured result on a workload.
type Outcome struct {
	Name         string
	BaseCycles   uint64 // untraced cycles for the identical run
	TracedCycles uint64
	Records      int

	SawKernel    bool // any kernel-mode reference captured
	SawPTE       bool // any page-table reference captured
	SawMultiprog bool // context-switch markers (or >1 PID) captured
}

// Dilation returns the measured slowdown factor.
func (o Outcome) Dilation() float64 {
	if o.BaseCycles == 0 {
		return 0
	}
	return float64(o.TracedCycles) / float64(o.BaseCycles)
}

// Factory builds a fresh, deterministic machine and its workload runner.
type Factory func() (*micro.Machine, func() error, error)

// Compare measures each technique against the bare machine on the same
// workload. The factory must produce identical machines each call.
func Compare(factory Factory, techs ...Technique) ([]Outcome, error) {
	mBase, runBase, err := factory()
	if err != nil {
		return nil, err
	}
	if err := runBase(); err != nil {
		return nil, err
	}
	base := mBase.Cycles

	var out []Outcome
	for _, tech := range techs {
		m, run, err := factory()
		if err != nil {
			return nil, err
		}
		sess, err := tech.Install(m)
		if err != nil {
			return nil, err
		}
		if err := run(); err != nil {
			return nil, err
		}
		recs := sess.Records()
		sess.Uninstall()

		o := Outcome{
			Name:         tech.Name(),
			BaseCycles:   base,
			TracedCycles: m.Cycles,
			Records:      len(recs),
		}
		pids := map[uint8]bool{}
		for _, r := range recs {
			if r.Kind().IsMemRef() && !r.User() {
				o.SawKernel = true
			}
			if r.Kind() == trace.KindPTERead || r.Kind() == trace.KindPTEWrite {
				o.SawPTE = true
			}
			if r.Kind() == trace.KindCtxSwitch {
				o.SawMultiprog = true
			}
			pids[r.PID()] = true
		}
		if len(pids) > 1 {
			o.SawMultiprog = true
		}
		out = append(out, o)
	}
	return out, nil
}
