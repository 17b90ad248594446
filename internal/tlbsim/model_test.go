package tlbsim

import (
	"math/rand"
	"testing"

	"atum/internal/mem"
	"atum/internal/trace"
)

// stampTB is the per-entry clock-stamp model TB replaced: every way of
// a set is scanned on every lookup, and a victim is the first invalid
// way, else the way with the oldest last use. It is kept, unchanged in
// behaviour, as the oracle the packed recency-ordered sets are pinned
// to.
type stampTB struct {
	cfg     Config
	sets    uint32
	entries []stampEntry
	clock   uint64

	Stats Stats
}

type stampEntry struct {
	valid bool
	vpn   uint32
	pid   uint8
	stamp uint64
}

func newStampTB(cfg Config) *stampTB {
	sets := cfg.Entries / cfg.Assoc
	if cfg.SplitSystem {
		sets /= 2
	}
	return &stampTB{cfg: cfg, sets: sets, entries: make([]stampEntry, cfg.Entries)}
}

func (t *stampTB) access(addr uint32, pid uint8, count bool) bool {
	t.clock++
	if count {
		t.Stats.Accesses++
	}
	vpn := addr >> mem.PageShift
	system := addr>>30 == 2

	set := vpn & (t.sets - 1)
	base := set * t.cfg.Assoc
	if t.cfg.SplitSystem && system {
		base += t.sets * t.cfg.Assoc // upper half
	}
	ways := t.entries[base : base+t.cfg.Assoc]

	effPID := pid
	if system {
		effPID = 0 // system space is shared
	}
	for i := range ways {
		e := &ways[i]
		if e.valid && e.vpn == vpn && (!t.cfg.PIDTags || e.pid == effPID) {
			if count {
				t.Stats.Hits++
			}
			e.stamp = t.clock
			return true
		}
	}
	if count {
		t.Stats.Misses++
	}
	victim := 0
	for i := range ways {
		if !ways[i].valid {
			victim = i
			break
		}
		if ways[i].stamp < ways[victim].stamp {
			victim = i
		}
	}
	ways[victim] = stampEntry{valid: true, vpn: vpn, pid: effPID, stamp: t.clock}
	return false
}

func (t *stampTB) FlushProcess() {
	t.Stats.Flushes++
	for i := range t.entries {
		if t.entries[i].valid && t.entries[i].vpn>>21 != 2 {
			t.entries[i].valid = false
		}
	}
}

func (t *stampTB) resident() int {
	n := 0
	for _, e := range t.entries {
		if e.valid {
			n++
		}
	}
	return n
}

func (t *TB) resident() int {
	n := 0
	for _, e := range t.entries {
		if e != 0 {
			n++
		}
	}
	return n
}

// TestTBMatchesStampModel pins TB to the stamp model: split and shared
// halves, PID tags or none, 1 to 64 ways, process flushes that leave
// holes among a shared set's system entries, and untallied Touch
// lookups, comparing every lookup's hit or miss, the Stats throughout
// and the resident entries after every flush. Half the lookups reach
// the TB through Sim.Feed, half through Access and Touch.
func TestTBMatchesStampModel(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	n := 50_000
	if testing.Short() {
		n = 5_000
	}
	var cfgs []Config
	for _, split := range []bool{false, true} {
		for _, pidTags := range []bool{false, true} {
			for _, ways := range []uint32{1, 2, 4, 8, 64} {
				cfgs = append(cfgs, Config{Entries: ways * 16, Assoc: ways, SplitSystem: split, PIDTags: pidTags})
			}
		}
		cfgs = append(cfgs, Config{Entries: 64, Assoc: 64, PIDTags: split}) // fully associative
	}
	for _, cfg := range cfgs {
		// Sim routes every reference to the TB: a data read as a counted
		// lookup, a PTE read as a Touch.
		cfg.IncludeSystem, cfg.WalkRefs = true, true
		s, err := NewSim(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tb, m := s.t, newStampTB(cfg)
		sets, ways := cfg.Entries/cfg.Assoc, cfg.Assoc
		for i := range n {
			if r.Intn(200) == 0 {
				tb.FlushProcess()
				m.FlushProcess()
				if tb.resident() != m.resident() {
					t.Fatalf("%+v: lookup %d: flush left %d entries, model %d", cfg, i, tb.resident(), m.resident())
				}
				continue
			}
			// Pages over a few times the TB's reach, in P0, P1 and S0,
			// half of them in one set's conflict class.
			vpn := uint32(r.Intn(int(3*cfg.Entries) + 1))
			if r.Intn(2) == 0 {
				vpn = uint32(r.Intn(int(ways)+2)) * sets
			}
			addr := vpn<<mem.PageShift | uint32(r.Intn(mem.PageSize))
			switch r.Intn(3) {
			case 1:
				addr |= 0x4000_0000 // P1
			case 2:
				addr |= 0x8000_0000 // S0
			}
			pid, count := uint8(r.Intn(3)), r.Intn(4) != 0
			var got bool
			switch {
			case r.Intn(2) == 0:
				// Through Sim.Feed, whose loop settles a hit on a set's
				// first entry itself.
				kind, hits := trace.KindPTERead, tb.Stats.Hits
				if count {
					kind = trace.KindDRead
				}
				if err := s.Feed([]trace.Word{trace.Pack(kind, addr, 4, pid, addr>>31 == 0, false, 0)}); err != nil {
					t.Fatal(err)
				}
				got = tb.Stats.Hits > hits
			case count:
				got = tb.Access(addr, pid)
			default:
				tb.Touch(addr, pid)
			}
			if want := m.access(addr, pid, count); count && got != want || tb.Stats != m.Stats {
				t.Fatalf("%+v: lookup %d (%#x pid %d): hit %v, model %v\n got %+v\nwant %+v", cfg, i, addr, pid, got, want, tb.Stats, m.Stats)
			}
		}
	}
}
