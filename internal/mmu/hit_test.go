package mmu

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"atum/internal/mem"
)

// pteCall is one Observer callback.
type pteCall struct {
	write bool
	addr  uint32
	virt  bool
}

type callLog struct{ calls []pteCall }

func (l *callLog) PTERead(addr uint32, virt bool) {
	l.calls = append(l.calls, pteCall{false, addr, virt})
}

func (l *callLog) PTEWrite(addr uint32, virt bool) {
	l.calls = append(l.calls, pteCall{true, addr, virt})
}

// randomUnit builds a 64 KB machine's MMU from seed: random system and
// P0/P1 page tables (valid bits, every protection code including the
// undefined ones, modify bits, frames partly past the end of RAM) and a
// TB filled partly from those tables and partly with arbitrary PTEs.
// The same seed builds the same unit.
func randomUnit(seed int64) (*Unit, *callLog) {
	const memSize = 64 << 10
	rng := rand.New(rand.NewSource(seed))
	phys, err := mem.NewPhysical(memSize, 0)
	if err != nil {
		panic(err)
	}
	u := New(phys, 16)
	log := &callLog{}
	u.Obs = log
	defined := []uint32{ProtKW, ProtKR, ProtUR, ProtUW, ProtURKR}
	randomPTE := func() uint32 {
		pte := rng.Uint32() &^ (PTEValid | PTEProtMask | PTEPFNMask)
		if rng.Intn(5) != 0 {
			pte |= PTEValid
		}
		prot := uint32(rng.Intn(16))
		if rng.Intn(4) != 0 {
			prot = defined[rng.Intn(len(defined))]
		}
		return pte | prot<<PTEProtShift | uint32(rng.Intn(memSize/mem.PageSize+8))
	}
	// The system page table sits in frame 1 and maps S0 pages 0-127;
	// frames 2 and 3 hold the P0 and P1 tables, reached through S0
	// pages 2 and 3, which stay valid except in one seed in eight.
	const spt = 1 * mem.PageSize
	for vpn := uint32(0); vpn < 128; vpn++ {
		pte := randomPTE()
		if (vpn == 2 || vpn == 3) && rng.Intn(8) != 0 {
			pte = MakePTE(vpn, ProtKW)
		}
		_ = phys.Store32(spt+4*vpn, pte)
	}
	for i := uint32(0); i < 2*128; i++ {
		_ = phys.Store32(2*mem.PageSize+4*i, randomPTE())
	}
	u.SBR, u.SLR = spt, 96+uint32(rng.Intn(40))
	u.P0BR, u.P0LR = 0x80000000+2*mem.PageSize, uint32(rng.Intn(130))
	u.P1BR, u.P1LR = 0x80000000+3*mem.PageSize-4*(RegionPages-128), RegionPages-uint32(rng.Intn(130))
	u.MapEn = rng.Intn(10) != 0
	for i := 0; i < 12; i++ {
		va := randomVA(rng)
		if rng.Intn(2) == 0 {
			u.TB.fill(va, randomPTE())
		} else {
			_, _ = u.translateSlow(va, rng.Intn(2) == 0, false)
		}
	}
	log.calls = nil
	u.Stats = Stats{}
	return u, log
}

// randomVA draws an address from P0, P1, S0 or the reserved region,
// mostly within the pages the page tables cover.
func randomVA(rng *rand.Rand) uint32 {
	off := uint32(rng.Intn(140)) << mem.PageShift
	off |= uint32(rng.Intn(mem.PageSize))
	switch rng.Intn(7) {
	case 0, 1:
		return off
	case 2, 3:
		return 0x80000000 - 1 - off
	case 4, 5:
		return 0x80000000 + off
	}
	return 0xC0000000 + off
}

// accessClass names which path an access takes, judged from the TB
// before it runs.
func accessClass(u *Unit, va uint32, user, write bool) string {
	if !u.MapEn {
		return "mapping off"
	}
	pte, ok := u.TB.probe(va)
	switch {
	case !ok:
		return "miss"
	case !protAllows((pte&PTEProtMask)>>PTEProtShift, user, write):
		return "hit, protection fault"
	case write && pte&PTEModify == 0:
		return "hit, first write to a clean page"
	}
	return "hit, resolved"
}

// TestTranslateHitMatchesWalk: on random page tables, TB contents,
// protection codes, modify bits, modes and write flags, Translate
// returns what the full translation (translateSlow, the TB probe and
// walk every access took before the TB-hit path) returns, the PA or
// the fault, and leaves the same statistics, TB entries and ordered
// observer calls.
func TestTranslateHitMatchesWalk(t *testing.T) {
	classes := map[string]int{}
	for seed := int64(0); seed < 400; seed++ {
		got, gotLog := randomUnit(seed)
		want, wantLog := randomUnit(seed)
		rng := rand.New(rand.NewSource(seed + 1e6))
		var seen []uint32
		for i := 0; i < 200; i++ {
			va, user, write := randomVA(rng), rng.Intn(2) == 0, rng.Intn(3) == 0
			if len(seen) > 0 && rng.Intn(3) != 0 { // revisit a page the TB may hold
				va = seen[rng.Intn(len(seen))]&^(mem.PageSize-1) | uint32(rng.Intn(mem.PageSize))
			}
			seen = append(seen, va)
			class := accessClass(got, va, user, write)
			classes[class]++
			pa, fault := got.Translate(va, user, write)
			wpa, wfault := want.translateSlow(va, user, write)
			if pa != wpa || (fault == nil) != (wfault == nil) || fault != nil && *fault != *wfault {
				t.Fatalf("seed %d access %d (%s): Translate(%#x, user=%v, write=%v) = %#x, %v; walk gives %#x, %v",
					seed, i, class, va, user, write, pa, fault, wpa, wfault)
			}
			if got.Stats != want.Stats {
				t.Fatalf("seed %d access %d (%s): stats %+v, walk %+v", seed, i, class, got.Stats, want.Stats)
			}
			if !slices.Equal(got.TB.entries, want.TB.entries) {
				t.Fatalf("seed %d access %d (%s): TB entries differ", seed, i, class)
			}
			if !slices.Equal(gotLog.calls, wantLog.calls) {
				t.Fatalf("seed %d access %d (%s): observer calls %v, walk %v", seed, i, class, gotLog.calls, wantLog.calls)
			}
		}
		gm, _ := got.Mem.Bytes(0, got.Mem.Size())
		wm, _ := want.Mem.Bytes(0, want.Mem.Size())
		if !slices.Equal(gm, wm) {
			t.Fatalf("seed %d: memory differs", seed)
		}
		// A view of RAM is valid only while its memory is reachable.
		runtime.KeepAlive(got.Mem)
		runtime.KeepAlive(want.Mem)
	}
	for _, class := range []string{"mapping off", "miss", "hit, protection fault", "hit, first write to a clean page", "hit, resolved"} {
		if classes[class] < 50 {
			t.Errorf("only %d accesses took the %q path", classes[class], class)
		}
	}
	t.Logf("paths taken: %v", classes)
}

// TestHitAllowsTable: the table answers as protAllows does, with a
// write needing the modify bit as well.
func TestHitAllowsTable(t *testing.T) {
	for prot := uint32(0); prot < 16; prot++ {
		for _, modified := range []bool{false, true} {
			pte := MakePTE(1, prot)
			if modified {
				pte |= PTEModify
			}
			for _, user := range []bool{false, true} {
				for _, write := range []bool{false, true} {
					got := hitAllows[(pte&(PTEProtMask|PTEModify))>>hitShift]&(1<<hitAccess(user, write)) != 0
					want := protAllows(prot, user, write) && (modified || !write)
					if got != want {
						t.Errorf("prot %#x modified=%v user=%v write=%v: table %v, want %v", prot, modified, user, write, got, want)
					}
				}
			}
		}
	}
}
