package micro

import (
	"fmt"
	"slices"
	"testing"

	"atum/internal/mmu"
	"atum/internal/vax"
)

// The reference instruction-stream reads: one fetchByte per byte, as
// fetchWord and fetchLong were before they read the buffered longword
// directly.

func (m *Machine) fetchWordBytes() uint16 {
	lo := uint16(m.fetchByte())
	hi := uint16(m.fetchByte())
	return hi<<8 | lo
}

func (m *Machine) fetchLongBytes() uint32 {
	var v uint32
	for i := 0; i < 4; i++ {
		v |= uint32(m.fetchByte()) << (8 * i)
	}
	return v
}

// fetchOutcome is what one word or longword fetch leaves behind.
type fetchOutcome struct {
	v       uint32
	trap    string
	regs    [16]uint32
	cycles  uint64
	stats   mmu.Stats
	ibuf    uint32
	ibufTag uint32
	events  []machineEvent
}

// fetchAt runs one fetch of width bytes at va in user mode on the fuzzed
// machine (whose P0 protections put each test page before a readable,
// an invalid or a kernel-only page). With warm set the prefetch buffer
// already holds va's longword; otherwise it starts empty.
func fetchAt(t *testing.T, va uint32, width int, warm, ref bool) (o fetchOutcome) {
	t.Helper()
	m := fuzzMachine(t, nil, true, nil, 0)
	m.CPU.R[vax.PC] = va
	if warm {
		m.refillIBuf(va)
	}
	for ev := Event(0); ev < NumEvents; ev++ {
		m.AddHook(ev, func(m *Machine, a Access) {
			o.events = append(o.events, machineEvent{a, m.Cycles})
		})
	}
	func() {
		defer func() {
			if r := recover(); r != nil {
				tr, ok := r.(*trap)
				if !ok {
					panic(r)
				}
				o.trap = fmt.Sprintf("vector %#x restart %v params %x", tr.vector, tr.restart, tr.params)
			}
		}()
		switch {
		case width == 2 && ref:
			o.v = uint32(m.fetchWordBytes())
		case width == 2:
			o.v = uint32(m.fetchWord())
		case ref:
			o.v = m.fetchLongBytes()
		default:
			o.v = m.fetchLong()
		}
	}()
	o.regs = m.CPU.R
	o.cycles = m.Cycles
	o.stats = m.MMU.Stats
	o.ibuf, o.ibufTag = m.ibuf, m.ibufTag
	return o
}

// TestFetchFromBufferMatchesByteLoop: fetchWord and fetchLong give the
// value, PC, registers, cycles, TB statistics, buffer state, ordered
// micro-events and trap of the byte loop at every PC alignment of a
// page's last longword, for a next page that is mapped, invalid (TNV) or
// kernel-only (ACV), from an empty and from a warm prefetch buffer.
func TestFetchFromBufferMatchesByteLoop(t *testing.T) {
	pages := []struct {
		next   string
		va     uint32 // the last longword of a user-readable page
		vector string
	}{
		{"mapped", 2*512 - 4, ""},
		{"TNV", 10*512 - 4, fmt.Sprintf("vector %#x", vax.VecTranslationNotValid)},
		{"ACV", 3*512 - 4, fmt.Sprintf("vector %#x", vax.VecAccessViolation)},
	}
	for _, pg := range pages {
		for k := uint32(0); k < 4; k++ {
			for _, width := range []int{2, 4} {
				for _, warm := range []bool{false, true} {
					name := fmt.Sprintf("next=%s/pc&3=%d/width=%d/warm=%v", pg.next, k, width, warm)
					got := fetchAt(t, pg.va+k, width, warm, false)
					want := fetchAt(t, pg.va+k, width, warm, true)
					if got.v != want.v || got.trap != want.trap || got.regs != want.regs ||
						got.cycles != want.cycles || got.stats != want.stats ||
						got.ibuf != want.ibuf || got.ibufTag != want.ibufTag {
						t.Errorf("%s: got %#x trap %q regs %x cycles %d stats %+v buf %#x/%#x\nwant %#x trap %q regs %x cycles %d stats %+v buf %#x/%#x",
							name, got.v, got.trap, got.regs, got.cycles, got.stats, got.ibuf, got.ibufTag,
							want.v, want.trap, want.regs, want.cycles, want.stats, want.ibuf, want.ibufTag)
					}
					if !slices.Equal(got.events, want.events) {
						t.Errorf("%s: events %+v, byte loop %+v", name, got.events, want.events)
					}
					// The operand reaches the next page only from this
					// alignment on, and then only a mapped page lets it in.
					crosses := k+uint32(width) > 4
					if faulted := want.trap != ""; faulted != (crosses && pg.vector != "") {
						t.Errorf("%s: trap %q, want one only on crossing into a %s page", name, want.trap, pg.next)
					} else if faulted && got.trap[:len(pg.vector)] != pg.vector {
						t.Errorf("%s: trap %q, want %s", name, got.trap, pg.vector)
					}
				}
			}
		}
	}
}
