// Package tlbsim simulates translation buffers over ATUM traces for the
// paper's TB studies: miss rate as a function of size and organisation,
// with and without system references, and PID-tagged versus
// flush-on-switch designs.
//
// Unlike the machine's own hardware TB (internal/mmu), which affects
// execution, this simulator replays captured traces, so many TB designs
// can be evaluated from one capture — the methodological point of
// trace-driven studies.
package tlbsim

import (
	"fmt"

	"atum/internal/mem"
	"atum/internal/trace"
)

// Config parameterises a simulated TB.
type Config struct {
	// Label is an optional experiment-assigned tag; Name derives the
	// reported configuration name from it.
	Label   string
	Entries uint32 // total entries (power of two)
	Assoc   uint32 // ways
	// SplitSystem reserves half the TB for system addresses (VA bit 31),
	// as on the VAX 8200.
	SplitSystem bool
	// PIDTags tags entries by process; FlushOnSwitch invalidates process
	// entries at context switches (system entries survive, matching the
	// hardware's behaviour).
	PIDTags       bool
	FlushOnSwitch bool
	// IncludeSystem feeds kernel-mode references to the TB; turning it
	// off models the user-only traces earlier studies were limited to.
	IncludeSystem bool
	// WalkRefs feeds the translation microcode's own virtual PTE
	// references (process page tables live in system space) through the
	// TB as system accesses. Real hardware's TB serves those lookups
	// too; a replay that drops them systematically understates misses
	// (measured in experiment A5).
	WalkRefs bool
}

func (c Config) String() string {
	return fmt.Sprintf("%d-entry/%d-way", c.Entries, c.Assoc)
}

// Name returns the configuration's reporting name — the label when one
// is set, the geometry otherwise, as every simulator configuration
// names itself.
func (c Config) Name() string {
	if c.Label != "" {
		return c.Label
	}
	return c.String()
}

// Validate checks structural parameters.
func (c Config) Validate() error {
	if c.Entries == 0 || c.Assoc == 0 {
		return fmt.Errorf("tlbsim: zero parameter")
	}
	if c.Entries&(c.Entries-1) != 0 {
		return fmt.Errorf("tlbsim: entries %d not a power of two", c.Entries)
	}
	if c.Entries%c.Assoc != 0 {
		return fmt.Errorf("tlbsim: entries %d not divisible by assoc %d", c.Entries, c.Assoc)
	}
	sets := c.Entries / c.Assoc
	if c.SplitSystem {
		sets /= 2
	}
	if sets == 0 || sets&(sets-1) != 0 {
		return fmt.Errorf("tlbsim: set count %d not a power of two", sets)
	}
	return nil
}

// Stats accumulates TB simulation results.
type Stats struct {
	Accesses uint64
	Hits     uint64
	Misses   uint64
	Flushes  uint64
}

// MissRate returns Misses/Accesses.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// An entry is one uint64: the VPN in bits 0-31, the PID tag in bits
// 32-39 (0 without PID tags, and for system pages) and a valid bit. An
// invalid entry is 0; an entry translates a reference when it equals
// the reference's key (see slot).
const entryValid = 1 << 40

// TB is one simulated translation buffer, LRU within sets. Each set
// keeps its valid entries first, most recently used first, so a
// reference to a set's first entry is a hit that changes nothing: Sim
// settles it without a call.
type TB struct {
	cfg     Config
	sets    uint32 // sets per half (or total when not split)
	half    int    // index of the system half's first entry; 0 when not split
	pidMask uint8  // 0xff with PID tags, 0 without
	entries []uint64

	Stats Stats
}

// New builds a TB; the config must validate.
func New(cfg Config) (*TB, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t := &TB{cfg: cfg, sets: cfg.Entries / cfg.Assoc, entries: make([]uint64, cfg.Entries)}
	if cfg.SplitSystem {
		t.sets /= 2
		t.half = int(cfg.Entries / 2)
	}
	if cfg.PIDTags {
		t.pidMask = 0xff
	}
	return t, nil
}

// Access simulates translating one reference address.
func (t *TB) Access(addr uint32, pid uint8) bool {
	i, key := t.slot(addr, pid)
	return t.settle(i, key, true)
}

// Touch updates TB state for a reference without counting it in the
// statistics — used for the translation microcode's own PTE lookups,
// which occupy and evict entries but are not architectural translations
// (the hardware's miss counter does not see them either).
func (t *TB) Touch(addr uint32, pid uint8) {
	i, key := t.slot(addr, pid)
	t.settle(i, key, false)
}

// slot returns the index of the first entry of the set addr maps to,
// and the key of an entry translating addr for pid. System space is
// shared, so its pages carry PID tag 0.
func (t *TB) slot(addr uint32, pid uint8) (int, uint64) {
	vpn := addr >> mem.PageShift
	i := int(vpn&(t.sets-1)) * int(t.cfg.Assoc)
	if addr>>30 == 2 {
		pid = 0
		i += t.half
	}
	return i, uint64(vpn) | uint64(pid&t.pidMask)<<32 | entryValid
}

// settle looks key up in the set whose first entry is at i, counting
// the lookup when count is set. A hit moves to the front; a miss enters
// at the front and drops the last entry of a full set.
func (t *TB) settle(i int, key uint64, count bool) bool {
	set := t.entries[i : i+int(t.cfg.Assoc) : i+int(t.cfg.Assoc)]
	// Stop at the key, the first invalid entry or the last entry: the
	// shift below overwrites an invalid one and drops a last valid one.
	d := 0
	for d < len(set)-1 && set[d] != key && set[d] != 0 {
		d++
	}
	hit := set[d] == key
	copy(set[1:d+1], set[:d])
	set[0] = key
	if count {
		t.Stats.Accesses++
		if hit {
			t.Stats.Hits++
		} else {
			t.Stats.Misses++
		}
	}
	return hit
}

// FlushProcess invalidates non-system entries (context switch),
// keeping each set's surviving system entries first, in their order.
func (t *TB) FlushProcess() {
	t.Stats.Flushes++
	assoc := int(t.cfg.Assoc)
	for base := 0; base < len(t.entries); base += assoc {
		set := t.entries[base : base+assoc]
		n := 0
		for _, e := range set {
			if uint32(e)>>21 == 2 { // a system page: VA bits 31-30 are 10
				set[n] = e
				n++
			}
		}
		clear(set[n:])
	}
}

// Sim is an incrementally-fed TB simulation, driven by the sweep
// pipeline (internal/sweep) or fed directly. PTE references are not
// translated (they are the *product* of TB misses) unless WalkRefs
// feeds them as untallied lookups; physical references never are.
type Sim struct {
	t   *TB
	cfg Config
}

// NewSim validates the configuration and returns a simulator ready to
// be fed record chunks.
func NewSim(cfg Config) (*Sim, error) {
	t, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return &Sim{t: t, cfg: cfg}, nil
}

// Feed routes one chunk of records into the TB. The chunk is only read;
// it may be reused by the caller after Feed returns.
func (s *Sim) Feed(chunk []trace.Word) error {
	t := s.t
	var first uint64 // counted lookups that hit the first entry of their set
	for _, r := range chunk {
		count := true
		switch r.Kind() {
		case trace.KindCtxSwitch:
			if s.cfg.FlushOnSwitch {
				t.FlushProcess()
			}
			continue
		case trace.KindIFetch, trace.KindDRead, trace.KindDWrite:
			if r.Phys() || !s.cfg.IncludeSystem && !r.User() {
				continue
			}
		case trace.KindPTERead, trace.KindPTEWrite:
			if !s.cfg.WalkRefs || r.Phys() {
				continue
			}
			count = false
		default:
			continue
		}
		// A hit on the first entry of its set changes nothing.
		i, key := t.slot(r.Addr(), r.PID())
		if t.entries[i] == key {
			if count {
				first++
			}
			continue
		}
		t.settle(i, key, count)
	}
	t.Stats.Accesses += first
	t.Stats.Hits += first
	return nil
}

// Result reports the simulation so far.
func (s *Sim) Result() (Stats, error) { return s.t.Stats, nil }
