// Package kernel boots and operates the simulated machine's operating
// system: a small multiprogramming kernel (written in the machine's own
// assembly, see Source) with preemptive round-robin scheduling, demand
// paging, per-process address spaces and a handful of system calls.
//
// The Go code here plays the role of the console front-end processor and
// bootstrap linker: it assembles the kernel, lays out physical memory
// (system page table, SCB, PCBs, per-process page tables, program
// images), pokes the kernel's configuration cells, and starts the CPU at
// the kernel entry point. From that moment everything that happens —
// scheduling, page faults, system calls — is instructions executing on
// the simulated CPU, visible to ATUM's microcode patches.
package kernel

import (
	"fmt"
	"slices"
	"sync"

	"atum/internal/mem"
	"atum/internal/micro"
	"atum/internal/mmu"
	"atum/internal/vax"
)

// KVBase is the base of system virtual space.
const KVBase uint32 = 0x80000000

// MaxProcs matches the kernel's static process-table size.
const MaxProcs = 16

// Config parameterises a system.
type Config struct {
	Machine micro.Config

	// CPUs is the number of processors sharing the machine's memory
	// (0 or 1 builds the classic uniprocessor). Every CPU runs the same
	// kernel image from kstart with a private interval timer, a private
	// kernel stack, and a private copy of the percpu page mapped through
	// its own system page table; everything else — process table, frame
	// pool, pipe, console, swap device — is shared, with the kernel's
	// spinlocks arbitrating access.
	CPUs int

	// ICRCycles is the interval-timer period in microcycles; QuantumTicks
	// is the number of ticks per scheduling quantum. The product is the
	// preemption interval.
	ICRCycles    uint32
	QuantumTicks uint32

	// MaxStackPages bounds each process's demand-grown user stack.
	MaxStackPages uint32
	// InitialStackPages are mapped eagerly at the top of P1.
	InitialStackPages uint32

	// FreeFrameCap, when nonzero, limits how many frames Finalize puts
	// on the kernel's free list — the rest of RAM is simply never
	// offered. This is the memory-pressure knob for paging studies: a
	// small cap forces the stealer and swap device to carry the
	// workload's working set.
	FreeFrameCap uint32
}

// DefaultConfig runs the standard machine with a 10k-cycle clock tick and
// a 5-tick quantum.
func DefaultConfig() Config {
	return Config{
		Machine:           micro.DefaultConfig(),
		ICRCycles:         10_000,
		QuantumTicks:      5,
		MaxStackPages:     64,
		InitialStackPages: 2,
	}
}

// Proc describes one loaded process.
type Proc struct {
	PID   uint8
	Name  string
	Index int

	PCBPA   uint32 // physical PCB address
	Entry   uint32 // initial PC
	HeapVPN uint32 // first heap page (initial break)
}

// ProcState is the kernel's view of a process slot.
type ProcState uint32

const (
	ProcFree      ProcState = 0
	ProcRunnable  ProcState = 1
	ProcDead      ProcState = 2
	ProcNapping   ProcState = 3
	ProcPipeWrite ProcState = 4
	ProcPipeRead  ProcState = 5
	// ProcRunning marks a process claimed by a CPU: between a scheduler's
	// claim (1 -> 6, under the kernel spinlock) and the process parking
	// itself again, no other CPU may dispatch it and the frame stealer
	// will not take its pages.
	ProcRunning ProcState = 6
)

// KilledStatus is the exit status recorded for processes the kernel
// killed (faults, bad system calls) rather than processes that exited.
const KilledStatus uint32 = 0xFFFFFFFF

// System is a booted (or bootable) machine+kernel+processes assembly.
type System struct {
	// M is the boot processor. Cores lists every processor, Cores[0] == M;
	// on a uniprocessor it has one entry. All cores share one physical
	// memory and one swap device but have private architectural state
	// (registers, TB, interval timer) and private ATUM microstores — a
	// collector installs on one core and sees that core's references.
	// Kernel is the kernel image every System shares, read-only.
	M      *micro.Machine
	Cores  []*micro.Machine
	Kernel *vax.Program
	Procs  []*Proc

	cfg       Config
	allocPA   uint32
	percpuPA  uint32   // physical address of the percpu page in the image
	percpu    []uint32 // per-CPU physical address of its percpu page copy
	finalized bool
}

// image assembles Source, a constant, once per process, and finds the
// chunks of it a boot loads. Every System shares the one image as its
// Kernel and only reads it.
var image = sync.OnceValues(func() (*kernelImage, error) {
	prog, err := vax.Assemble(Source)
	if err != nil {
		return nil, err
	}
	img := &kernelImage{prog: prog}
	for off := 0; off < len(prog.Bytes); off += imageChunk {
		if slices.ContainsFunc(prog.Bytes[off:min(off+imageChunk, len(prog.Bytes))], func(b byte) bool { return b != 0 }) {
			img.chunks = append(img.chunks, uint32(off))
		}
	}
	return img, nil
})

// imageChunk is the unit in which a boot loads the kernel image: a
// host page on common platforms.
const imageChunk = 4096

// kernelImage is the assembled kernel and the offsets of its
// imageChunk-byte chunks that hold a nonzero byte. Most of the image is
// zero tables.
type kernelImage struct {
	prog   *vax.Program
	chunks []uint32
}

// load copies the image to physical 0 of fresh RAM, which reads zero
// until written: only the chunks holding a nonzero byte are copied, so
// the pages under the zero tables stay untouched.
func (img *kernelImage) load(ram *mem.Physical) error {
	for _, off := range img.chunks {
		end := min(off+imageChunk, uint32(len(img.prog.Bytes)))
		if err := ram.LoadBytes(off, img.prog.Bytes[off:end]); err != nil {
			return err
		}
	}
	return nil
}

// NewSystem loads the kernel and prepares the machine. Call Spawn for
// each process, then Finalize, then Run.
func NewSystem(cfg Config) (*System, error) {
	img, err := image()
	if err != nil {
		return nil, fmt.Errorf("kernel: assembling: %w", err)
	}
	kprog := img.prog
	if kprog.Origin != KVBase {
		return nil, fmt.Errorf("kernel: origin %#x, want %#x", kprog.Origin, KVBase)
	}
	m, err := micro.New(cfg.Machine)
	if err != nil {
		return nil, err
	}
	s := &System{M: m, Kernel: kprog, cfg: cfg}

	// Kernel image at physical 0.
	if err := img.load(m.Mem); err != nil {
		return nil, fmt.Errorf("kernel: image: %w", err)
	}
	s.allocPA = pageAlign(uint32(len(kprog.Bytes)))

	// System control block: all vectors default to the kill handler,
	// specific ones point at their kernel routines.
	scbPA, err := s.alloc(mem.PageSize)
	if err != nil {
		return nil, err
	}
	def := kprog.MustSymbol("h_resv")
	for v := uint32(0); v < mem.PageSize; v += 4 {
		if err := m.Mem.Store32(scbPA+v, def); err != nil {
			return nil, err
		}
	}
	vectors := map[uint16]string{
		vax.VecTranslationNotValid: "h_tnv",
		vax.VecAccessViolation:     "h_acv",
		vax.VecCHMK:                "h_chmk",
		vax.VecArithmetic:          "h_arith",
		vax.VecReserved:            "h_resv",
		vax.VecIntervalTimer:       "h_clock",
		vax.VecSoftware1:           "h_soft",
		vax.VecTraceTrap:           "h_soft",
		vax.VecBreakpoint:          "h_resv",
	}
	for vec, sym := range vectors {
		if err := m.Mem.Store32(scbPA+uint32(vec), kprog.MustSymbol(sym)); err != nil {
			return nil, err
		}
	}
	m.SCBB = scbPA

	// System page table: identity-map every usable frame (trace region
	// excluded) with kernel-only protection.
	frames := m.Mem.ReservedBase() / mem.PageSize
	sptPA, err := s.alloc(pageAlign(frames * 4))
	if err != nil {
		return nil, err
	}
	for f := uint32(0); f < frames; f++ {
		if err := m.Mem.Store32(sptPA+4*f, mmu.MakePTE(f, mmu.ProtKW)); err != nil {
			return nil, err
		}
	}
	m.MMU.SBR = sptPA
	m.MMU.SLR = frames
	m.MMU.MapEn = true

	// Boot kernel stack.
	bootStk, err := s.alloc(2 * mem.PageSize)
	if err != nil {
		return nil, err
	}
	m.CPU.KSP = KVBase + bootStk + 2*mem.PageSize
	m.CPU.R[vax.SP] = m.CPU.KSP

	// Start in kernel mode at IPL 31 (clock blocked until the kernel
	// lowers it by dispatching the first process).
	m.CPU.PSL = uint32(vax.ModeKernel)<<vax.PSLCurModShift | 31<<vax.PSLIPLShift
	m.CPU.R[vax.PC] = kprog.MustSymbol("kstart")

	s.Cores = []*micro.Machine{m}
	s.percpuPA = s.kernPA("percpu")
	s.percpu = []uint32{s.percpuPA}

	// Additional processors: each shares the memory, SCB and kernel image
	// but gets its own system page table (a copy of CPU 0's, with the
	// percpu page remapped to a private frame), its own boot/idle kernel
	// stack, and its own interval timer programmed by kstart.
	ncpu := cfg.CPUs
	if ncpu <= 0 {
		ncpu = 1
	}
	if ncpu > MaxProcs {
		return nil, fmt.Errorf("kernel: %d CPUs exceeds the supported maximum %d", ncpu, MaxProcs)
	}
	for c := 1; c < ncpu; c++ {
		mc := micro.NewOnMemory(cfg.Machine, m)
		mc.CPUID = uint8(c)
		mc.SCBB = scbPA

		sptc, err := s.alloc(pageAlign(frames * 4))
		if err != nil {
			return nil, err
		}
		spt, err := m.Mem.Bytes(sptPA, frames*4)
		if err != nil {
			return nil, err
		}
		if err := m.Mem.LoadBytes(sptc, spt); err != nil {
			return nil, err
		}
		pcpPA, err := s.alloc(mem.PageSize)
		if err != nil {
			return nil, err
		}
		pcp, err := m.Mem.Bytes(s.percpuPA, mem.PageSize)
		if err != nil {
			return nil, err
		}
		if err := m.Mem.LoadBytes(pcpPA, pcp); err != nil {
			return nil, err
		}
		pte := mmu.MakePTE(pcpPA/mem.PageSize, mmu.ProtKW)
		if err := m.Mem.Store32(sptc+4*(s.percpuPA/mem.PageSize), pte); err != nil {
			return nil, err
		}
		mc.MMU.SBR = sptc
		mc.MMU.SLR = frames
		mc.MMU.MapEn = true

		stk, err := s.alloc(2 * mem.PageSize)
		if err != nil {
			return nil, err
		}
		mc.CPU.KSP = KVBase + stk + 2*mem.PageSize
		mc.CPU.R[vax.SP] = mc.CPU.KSP
		mc.CPU.PSL = uint32(vax.ModeKernel)<<vax.PSLCurModShift | 31<<vax.PSLIPLShift
		mc.CPU.R[vax.PC] = kprog.MustSymbol("kstart")

		s.percpu = append(s.percpu, pcpPA)
		s.Cores = append(s.Cores, mc)
	}
	// TB shootdown bus: TBIA/TBIS on any core broadcasts to all siblings.
	for _, a := range s.Cores {
		for _, b := range s.Cores {
			if a != b {
				a.TBPeers = append(a.TBPeers, b.MMU)
			}
		}
	}

	// Configuration cells.
	if err := s.pokeSym("icrval", cfg.ICRCycles); err != nil {
		return nil, err
	}
	if err := s.pokeSym("quantum", cfg.QuantumTicks); err != nil {
		return nil, err
	}
	for c := range s.Cores {
		if err := s.pokePercpu("cpuid", c, uint32(c)); err != nil {
			return nil, err
		}
		if err := s.pokePercpu("qleft", c, cfg.QuantumTicks); err != nil {
			return nil, err
		}
		if err := s.pokePercpu("idlesp", c, s.Cores[c].CPU.KSP); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// alloc grabs page-aligned physical memory during system construction.
func (s *System) alloc(n uint32) (uint32, error) {
	n = pageAlign(n)
	pa := s.allocPA
	if pa+n > s.M.Mem.ReservedBase() {
		return 0, fmt.Errorf("kernel: out of physical memory at %#x (+%#x)", pa, n)
	}
	s.allocPA += n
	return pa, nil
}

func pageAlign(n uint32) uint32 {
	return (n + mem.PageSize - 1) &^ (mem.PageSize - 1)
}

// kernPA converts a kernel symbol to its physical address.
func (s *System) kernPA(sym string) uint32 { return s.Kernel.MustSymbol(sym) - KVBase }

func (s *System) pokeSym(sym string, v uint32) error {
	return s.M.Mem.Store32(s.kernPA(sym), v)
}

// pokeArr writes kernel array cell sym[idx].
func (s *System) pokeArr(sym string, idx int, v uint32) error {
	return s.M.Mem.Store32(s.kernPA(sym)+4*uint32(idx), v)
}

// peekArr reads kernel array cell sym[idx].
func (s *System) peekArr(sym string, idx int) (uint32, error) {
	return s.M.Mem.Load32(s.kernPA(sym) + 4*uint32(idx))
}

// percpuAddr locates percpu cell sym in the physical frame backing that
// page on the given CPU (CPU 0's lives in the kernel image itself).
func (s *System) percpuAddr(sym string, cpu int) uint32 {
	return s.percpu[cpu] + (s.kernPA(sym) - s.percpuPA)
}

// pokePercpu writes a percpu cell on one CPU.
func (s *System) pokePercpu(sym string, cpu int, v uint32) error {
	return s.M.Mem.Store32(s.percpuAddr(sym, cpu), v)
}

// peekPercpu reads a percpu cell on one CPU.
func (s *System) peekPercpu(sym string, cpu int) (uint32, error) {
	return s.M.Mem.Load32(s.percpuAddr(sym, cpu))
}

// Spawn loads a program image as a new process. maxHeapPages bounds the
// demand/sbrk heap beyond the image. The program's entry point is its
// "start" symbol, or its origin if absent.
func (s *System) Spawn(name string, prog *vax.Program, maxHeapPages uint32) (*Proc, error) {
	if s.finalized {
		return nil, fmt.Errorf("kernel: Spawn after Finalize")
	}
	idx := len(s.Procs)
	if idx >= MaxProcs {
		return nil, fmt.Errorf("kernel: process table full (%d)", MaxProcs)
	}
	if prog.Origin < mem.PageSize {
		return nil, fmt.Errorf("kernel: program %q origin %#x overlaps the null guard page", name, prog.Origin)
	}
	if prog.End() >= 0x40000000 {
		return nil, fmt.Errorf("kernel: program %q does not fit in P0", name)
	}

	imageEndVPN := (prog.End() + mem.PageSize - 1) / mem.PageSize
	p0Pages := imageEndVPN + maxHeapPages

	// P0 page table.
	p0ptPA, err := s.alloc(p0Pages * 4)
	if err != nil {
		return nil, err
	}
	// Null guard: valid, kernel-only, so user dereferences of page 0 die
	// with ACV instead of being demand-zeroed.
	if err := s.M.Mem.Store32(p0ptPA, mmu.MakePTE(0, mmu.ProtKW)); err != nil {
		return nil, err
	}
	// Image pages: eagerly mapped and loaded.
	for vpn := prog.Origin / mem.PageSize; vpn < imageEndVPN; vpn++ {
		framePA, err := s.alloc(mem.PageSize)
		if err != nil {
			return nil, err
		}
		// Copy the portion of the image overlapping this page.
		pageVA := vpn * mem.PageSize
		lo, hi := pageVA, pageVA+mem.PageSize
		if lo < prog.Origin {
			lo = prog.Origin
		}
		if hi > prog.End() {
			hi = prog.End()
		}
		if lo < hi {
			src := prog.Bytes[lo-prog.Origin : hi-prog.Origin]
			if err := s.M.Mem.LoadBytes(framePA+(lo-pageVA), src); err != nil {
				return nil, err
			}
		}
		pte := mmu.MakePTE(framePA/mem.PageSize, mmu.ProtUW)
		if err := s.M.Mem.Store32(p0ptPA+4*vpn, pte); err != nil {
			return nil, err
		}
	}
	// Heap PTEs stay invalid (zero): demand-zero or sbrk fills them.

	// P1: stack window at the top of the control region.
	maxStack := s.cfg.MaxStackPages
	if maxStack == 0 {
		maxStack = 64
	}
	p1LR := uint32(mmu.RegionPages) - maxStack
	p1ptPA, err := s.alloc(maxStack * 4)
	if err != nil {
		return nil, err
	}
	init := s.cfg.InitialStackPages
	if init == 0 {
		init = 1
	}
	if init > maxStack {
		init = maxStack
	}
	for i := uint32(0); i < init; i++ {
		framePA, err := s.alloc(mem.PageSize)
		if err != nil {
			return nil, err
		}
		vpn := uint32(mmu.RegionPages) - 1 - i // from the top down
		pte := mmu.MakePTE(framePA/mem.PageSize, mmu.ProtUW)
		if err := s.M.Mem.Store32(p1ptPA+4*(vpn-p1LR), pte); err != nil {
			return nil, err
		}
	}
	p1BR := KVBase + p1ptPA - 4*p1LR

	// Kernel stack for this process.
	kstkPA, err := s.alloc(2 * mem.PageSize)
	if err != nil {
		return nil, err
	}
	ksp := KVBase + kstkPA + 2*mem.PageSize

	// PCB.
	pcbPA, err := s.alloc(mem.PageSize)
	if err != nil {
		return nil, err
	}
	pid := uint8(idx + 1)
	entry := prog.Origin
	if v, ok := prog.Symbol("start"); ok {
		entry = v
	}
	pcb := map[int]uint32{
		micro.PCBKSP:  ksp,
		micro.PCBUSP:  0x80000000, // top of P1; first push predecrements
		micro.PCBAP:   0x80000000,
		micro.PCBFP:   0x80000000,
		micro.PCBPC:   entry,
		micro.PCBPSL:  uint32(vax.ModeUser)<<vax.PSLCurModShift | uint32(vax.ModeUser)<<vax.PSLPrvModShift,
		micro.PCBP0BR: KVBase + p0ptPA,
		micro.PCBP0LR: p0Pages,
		micro.PCBP1BR: p1BR,
		micro.PCBP1LR: p1LR,
		micro.PCBPID:  uint32(pid),
	}
	for slot, v := range pcb {
		if err := s.M.Mem.Store32(pcbPA+4*uint32(slot), v); err != nil {
			return nil, err
		}
	}

	// Kernel process-table entries.
	if err := s.pokeArr("procstate", idx, uint32(ProcRunnable)); err != nil {
		return nil, err
	}
	if err := s.pokeArr("procpcb", idx, pcbPA); err != nil {
		return nil, err
	}
	if err := s.pokeArr("procpid", idx, uint32(pid)); err != nil {
		return nil, err
	}
	if err := s.pokeArr("procbrk", idx, imageEndVPN); err != nil {
		return nil, err
	}

	p := &Proc{PID: pid, Name: name, Index: idx, PCBPA: pcbPA, Entry: entry, HeapVPN: imageEndVPN}
	s.Procs = append(s.Procs, p)
	return p, nil
}

// Finalize seeds the free-frame list with all remaining usable frames and
// publishes the process count. Must be called once, after all Spawns.
func (s *System) Finalize() error {
	if s.finalized {
		return fmt.Errorf("kernel: double Finalize")
	}
	if len(s.Procs) == 0 {
		return fmt.Errorf("kernel: no processes spawned")
	}
	s.finalized = true

	if err := s.pokeSym("nproc", uint32(len(s.Procs))); err != nil {
		return err
	}
	// curproc is percpu: every CPU's first scan starts just past the last
	// slot, i.e. at process 0, and the claim lock spreads the early picks
	// across the cores.
	for c := range s.Cores {
		if err := s.pokePercpu("curproc", c, uint32(len(s.Procs)-1)); err != nil {
			return err
		}
	}

	first := s.allocPA / mem.PageSize
	limit := s.M.Mem.ReservedBase() / mem.PageSize
	freestk := s.kernPA("freestk") // one symbol lookup, not one per frame
	n := 0
	for f := first; f < limit; f++ {
		if s.cfg.FreeFrameCap != 0 && uint32(n) >= s.cfg.FreeFrameCap {
			break
		}
		if err := s.M.Mem.Store32(freestk+4*uint32(n), f); err != nil {
			return err
		}
		n++
	}
	if err := s.pokeSym("nframes", limit); err != nil {
		return err
	}
	return s.pokeSym("freecnt", uint32(n))
}

// ExitStatus reports the exit status recorded by exit(2), or
// KilledStatus for processes the kernel killed. Only meaningful once the
// process is dead.
func (s *System) ExitStatus(p *Proc) (uint32, error) {
	return s.peekArr("procexit", p.Index)
}

// SwapActivity reports paging traffic to the swap device.
func (s *System) SwapActivity() (reads, writes uint64) {
	return s.M.DiskStats()
}

// Rusage reports the kernel's per-process accounting: system calls
// made, page faults taken, and times scheduled in.
func (s *System) Rusage(p *Proc) (syscalls, faults, switches uint32, err error) {
	if syscalls, err = s.peekArr("proccalls", p.Index); err != nil {
		return
	}
	if faults, err = s.peekArr("procfaults", p.Index); err != nil {
		return
	}
	switches, err = s.peekArr("procswtch", p.Index)
	return
}

// Run boots (or continues) the system for at most maxInstrs instructions
// across all cores (0 = unlimited). It returns when the kernel halts —
// all processes have exited and every CPU executed HALT — or the budget
// is exhausted.
//
// A uniprocessor runs micro.Machine.Run. A multiprocessor runs
// micro.RunCores, which steps the non-halted core with the smallest
// cycle count (ties to the lowest CPU id): one instruction at a time on
// one goroutine, so memory is sequentially consistent and every
// instruction atomic — the model the kernel's interlocked-instruction
// spinlocks assume — and an N-core run is a pure function of the
// configuration, so captures replay bit-for-bit.
func (s *System) Run(maxInstrs uint64) (micro.StopReason, error) {
	if !s.finalized {
		return 0, fmt.Errorf("kernel: Run before Finalize")
	}
	if len(s.Cores) == 1 {
		return s.M.Run(maxInstrs)
	}
	return micro.RunCores(s.Cores, maxInstrs)
}

// NumCPUs reports how many processors the system was built with.
func (s *System) NumCPUs() int { return len(s.Cores) }

// Console returns everything processes have written.
func (s *System) Console() string { return string(s.M.Mem.Console()) }

// State reports a process slot's kernel state.
func (s *System) State(p *Proc) (ProcState, error) {
	v, err := s.peekArr("procstate", p.Index)
	return ProcState(v), err
}

// FreeFrames reports how many frames remain on the kernel's free list.
func (s *System) FreeFrames() (uint32, error) {
	v, err := s.M.Mem.Load32(s.kernPA("freecnt"))
	return v, err
}
