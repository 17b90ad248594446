// Package mmu implements VAX-style memory management: the P0/P1/S0
// virtual-address regions, 512-byte pages, page-table entries with
// valid/protection/modify bits, base/length registers, and the hardware
// translation buffer (TB).
//
// Translation follows the VAX scheme: system-region (S0) page tables are
// addressed physically via SBR, while per-process (P0/P1) page tables
// live in S0 *virtual* space, so a process-region TB miss can trigger a
// nested system-region walk. Every PTE read performed by the "microcode"
// walk is reported to an Observer — these are exactly the references the
// ATUM patches record alongside ordinary program references.
package mmu

import (
	"fmt"

	"atum/internal/mem"
)

// Virtual address regions (VA bits 31:30).
const (
	RegionP0 = 0 // 0x00000000..0x3FFFFFFF: program region (code, heap)
	RegionP1 = 1 // 0x40000000..0x7FFFFFFF: control region (user stack), grows down
	RegionS0 = 2 // 0x80000000..0xBFFFFFFF: system region
)

// Region size in pages (1 GB / 512 B).
const RegionPages = 1 << 21

// PTE layout.
const (
	PTEValid     uint32 = 1 << 31
	PTEProtShift        = 27
	PTEProtMask  uint32 = 0xF << PTEProtShift
	PTEModify    uint32 = 1 << 26
	PTEPFNMask   uint32 = 0x1FFFFF
)

// Protection codes (stored in the PTE prot field). A simplified but
// VAX-shaped lattice: kernel always has read access to valid pages;
// the code controls kernel write and user read/write.
const (
	ProtKW   uint32 = 0x2 // kernel read/write, user no access
	ProtKR   uint32 = 0x3 // kernel read-only, user no access
	ProtUR   uint32 = 0x6 // kernel read/write, user read-only
	ProtUW   uint32 = 0x4 // kernel and user read/write
	ProtURKR uint32 = 0x7 // kernel read-only, user read-only
)

// MakePTE builds a valid PTE for page frame pfn with protection prot.
func MakePTE(pfn uint32, prot uint32) uint32 {
	return PTEValid | (prot << PTEProtShift) | (pfn & PTEPFNMask)
}

// protAllows reports whether an access in the given mode is permitted.
func protAllows(prot uint32, userMode, write bool) bool {
	switch prot {
	case ProtKW:
		return !userMode
	case ProtKR:
		return !userMode && !write
	case ProtUR:
		if !userMode {
			return true
		}
		return !write
	case ProtUW:
		return true
	case ProtURKR:
		return !write
	default:
		return false
	}
}

// FaultKind distinguishes the two memory-management exceptions.
type FaultKind uint8

const (
	FaultACV FaultKind = iota // access violation (protection or length)
	FaultTNV                  // translation not valid (page fault)
)

func (k FaultKind) String() string {
	if k == FaultACV {
		return "ACV"
	}
	return "TNV"
}

// Fault describes a failed translation.
type Fault struct {
	Kind   FaultKind
	VA     uint32
	Write  bool
	PTERef bool // the fault occurred on a nested page-table reference
}

func (f *Fault) Error() string {
	return fmt.Sprintf("mmu: %s va=%#x write=%v pteRef=%v", f.Kind, f.VA, f.Write, f.PTERef)
}

// Observer receives the memory references made by the translation
// microcode itself (PTE reads, and PTE writes when setting modify bits).
// addr is a virtual address when virt is true (process-region PTEs, which
// live in S0 space), otherwise physical (system-region PTEs).
type Observer interface {
	PTERead(addr uint32, virt bool)
	PTEWrite(addr uint32, virt bool)
}

// Stats counts translation activity.
type Stats struct {
	Accesses uint64
	TBHits   uint64
	TBMisses uint64
	PTEReads uint64
	Faults   uint64
}

// Unit is the memory-management unit.
type Unit struct {
	Mem *mem.Physical
	Obs Observer // may be nil

	MapEn bool // MAPEN: when false, VAs are PAs

	// Base/length registers. P0BR/P1BR are S0 virtual addresses; SBR is
	// physical. Lengths are in pages. P1 is valid for vpn >= P1LR.
	P0BR, P0LR uint32
	P1BR, P1LR uint32
	SBR, SLR   uint32

	TB    TB
	Stats Stats
}

// New creates an MMU over physical memory with a TB of tbEntries
// (power of two, split evenly between process and system halves).
func New(m *mem.Physical, tbEntries int) *Unit {
	u := &Unit{Mem: m}
	u.TB.init(tbEntries)
	return u
}

// hitShift brings a PTE's modify bit and protection code (bits 26-30)
// down to an index into hitAllows.
const hitShift = 26

// hitAllows holds, for each value of PTE bits 26-30 (the modify bit and
// the protection code), one bit per access kind, indexed by
// hitAccess(userMode, write): set when a TB hit with those bits resolves
// the access with no further work. That is, protAllows permits it, and a
// write finds the modify bit already set.
var hitAllows = func() (t [32]uint8) {
	for bits := uint32(0); bits < 32; bits++ {
		pte := bits << hitShift
		prot, modified := (pte&PTEProtMask)>>PTEProtShift, pte&PTEModify != 0
		for _, user := range []bool{false, true} {
			for _, write := range []bool{false, true} {
				if protAllows(prot, user, write) && (modified || !write) {
					t[bits] |= 1 << hitAccess(user, write)
				}
			}
		}
	}
	return t
}()

// hitAccess numbers the four access kinds for hitAllows.
func hitAccess(userMode, write bool) uint8 {
	var a uint8
	if userMode {
		a = 2
	}
	if write {
		a++
	}
	return a
}

// Translate maps a virtual address to a physical address for an access of
// the given kind. userMode selects protection checking; write selects
// write permission and modify-bit maintenance. On failure the returned
// fault is non-nil.
//
// Translation is per-access, not per-page-crossing: the micro engine
// performs one Translate per memory reference at the reference's address
// (unaligned references that cross a page boundary translate each
// affected page).
//
// A TB hit whose PTE permits the access resolves here. Everything else
// (mapping off, a miss, a protection fault, a first write to a clean
// page) takes translateSlow, which counts and reports exactly what it
// always has.
func (u *Unit) Translate(va uint32, userMode, write bool) (uint32, *Fault) {
	if u.MapEn {
		if pte, ok := u.TB.probe(va); ok && hitAllows[(pte&(PTEProtMask|PTEModify))>>hitShift]&(1<<hitAccess(userMode, write)) != 0 {
			u.Stats.Accesses++
			u.Stats.TBHits++
			return (pte&PTEPFNMask)<<mem.PageShift | va&(mem.PageSize-1), nil
		}
	}
	return u.translateSlow(va, userMode, write)
}

// translateSlow is the full translation: the TB probe, the page-table
// walk on a miss, the protection check and the modify-bit write.
func (u *Unit) translateSlow(va uint32, userMode, write bool) (uint32, *Fault) {
	u.Stats.Accesses++
	if !u.MapEn {
		return va, nil
	}
	pte, fault := u.lookup(va, write)
	if fault != nil {
		u.Stats.Faults++
		return 0, fault
	}
	prot := (pte & PTEProtMask) >> PTEProtShift
	if !protAllows(prot, userMode, write) {
		u.Stats.Faults++
		return 0, &Fault{Kind: FaultACV, VA: va, Write: write}
	}
	if write && pte&PTEModify == 0 {
		u.setModify(va)
	}
	return (pte&PTEPFNMask)<<mem.PageShift | va&(mem.PageSize-1), nil
}

// lookup returns the PTE for va, consulting the TB first and walking the
// page tables on a miss.
func (u *Unit) lookup(va uint32, write bool) (uint32, *Fault) {
	if pte, ok := u.TB.probe(va); ok {
		u.Stats.TBHits++
		return pte, nil
	}
	u.Stats.TBMisses++
	pte, fault := u.walk(va, false)
	if fault != nil {
		return 0, fault
	}
	u.TB.fill(va, pte)
	return pte, nil
}

// walk performs the page-table walk for va. nested marks the inner system
// walk performed to translate a process page-table address.
func (u *Unit) walk(va uint32, nested bool) (uint32, *Fault) {
	region := va >> 30
	vpn := (va >> mem.PageShift) & (RegionPages - 1)

	switch region {
	case RegionS0:
		if vpn >= u.SLR {
			return 0, &Fault{Kind: FaultACV, VA: va, PTERef: nested}
		}
		pteAddr := u.SBR + 4*vpn // physical
		u.Stats.PTEReads++
		if u.Obs != nil {
			u.Obs.PTERead(pteAddr, false)
		}
		pte, err := u.Mem.Load32(pteAddr)
		if err != nil {
			return 0, &Fault{Kind: FaultACV, VA: va, PTERef: nested}
		}
		if pte&PTEValid == 0 {
			return 0, &Fault{Kind: FaultTNV, VA: va, PTERef: nested}
		}
		return pte, nil

	case RegionP0, RegionP1:
		if nested {
			// Process page tables must live in S0.
			return 0, &Fault{Kind: FaultACV, VA: va, PTERef: true}
		}
		var br uint32
		if region == RegionP0 {
			if vpn >= u.P0LR {
				return 0, &Fault{Kind: FaultACV, VA: va}
			}
			br = u.P0BR
		} else {
			if vpn < u.P1LR {
				return 0, &Fault{Kind: FaultACV, VA: va}
			}
			br = u.P1BR
		}
		pteVA := br + 4*vpn // S0 virtual address of the process PTE

		// The process PTE itself is reached through the system half of
		// the TB (a nested translation).
		sysPTE, ok := u.TB.probe(pteVA)
		if !ok {
			var fault *Fault
			sysPTE, fault = u.walk(pteVA, true)
			if fault != nil {
				// Report the original VA; the kernel sees a fault on the
				// user address with PTERef set.
				fault.VA = va
				fault.PTERef = true
				return 0, fault
			}
			u.TB.fill(pteVA, sysPTE)
		}
		ptePA := (sysPTE&PTEPFNMask)<<mem.PageShift | pteVA&(mem.PageSize-1)
		u.Stats.PTEReads++
		if u.Obs != nil {
			u.Obs.PTERead(pteVA, true)
		}
		pte, err := u.Mem.Load32(ptePA)
		if err != nil {
			return 0, &Fault{Kind: FaultACV, VA: va}
		}
		if pte&PTEValid == 0 {
			return 0, &Fault{Kind: FaultTNV, VA: va}
		}
		return pte, nil

	default:
		return 0, &Fault{Kind: FaultACV, VA: va, PTERef: nested}
	}
}

// setModify sets the modify bit in the PTE backing va. The PTE location
// is recomputed (it must be resident: the page was just translated). The
// TB entry is refreshed so subsequent writes don't repeat the store.
func (u *Unit) setModify(va uint32) {
	region := va >> 30
	vpn := (va >> mem.PageShift) & (RegionPages - 1)
	var ptePA, pteAddr uint32
	var virt bool
	switch region {
	case RegionS0:
		ptePA = u.SBR + 4*vpn
		pteAddr, virt = ptePA, false
	case RegionP0, RegionP1:
		var br uint32
		if region == RegionP0 {
			br = u.P0BR
		} else {
			br = u.P1BR
		}
		pteVA := br + 4*vpn
		sysPTE, ok := u.TB.probe(pteVA)
		if !ok {
			var fault *Fault
			sysPTE, fault = u.walk(pteVA, true)
			if fault != nil {
				return // cannot happen after a successful translate
			}
			u.TB.fill(pteVA, sysPTE)
		}
		ptePA = (sysPTE&PTEPFNMask)<<mem.PageShift | pteVA&(mem.PageSize-1)
		pteAddr, virt = pteVA, true
	default:
		return
	}
	pte, err := u.Mem.Load32(ptePA)
	if err != nil || pte&PTEValid == 0 {
		return
	}
	pte |= PTEModify
	if u.Obs != nil {
		u.Obs.PTEWrite(pteAddr, virt)
	}
	_ = u.Mem.Store32(ptePA, pte)
	u.TB.update(va, pte)
}

// Probe translates without side effects on the modify bit or statistics;
// used by debuggers and the Go-side loaders.
func (u *Unit) Probe(va uint32, userMode, write bool) (uint32, *Fault) {
	if !u.MapEn {
		return va, nil
	}
	// Walk directly (no TB fill), skip modify maintenance, and restore
	// observer and statistics so the probe leaves no trace.
	obs, stats := u.Obs, u.Stats
	u.Obs = nil
	defer func() { u.Obs, u.Stats = obs, stats }()
	pte, fault := u.walk(va, false)
	if fault != nil {
		return 0, fault
	}
	prot := (pte & PTEProtMask) >> PTEProtShift
	if !protAllows(prot, userMode, write) {
		return 0, &Fault{Kind: FaultACV, VA: va, Write: write}
	}
	return (pte&PTEPFNMask)<<mem.PageShift | va&(mem.PageSize-1), nil
}
