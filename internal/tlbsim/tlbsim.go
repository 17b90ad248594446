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

type entry struct {
	valid bool
	vpn   uint32
	pid   uint8
	stamp uint64
}

// TB is one simulated translation buffer (LRU within sets).
type TB struct {
	cfg     Config
	sets    uint32 // sets per half (or total when not split)
	entries []entry
	clock   uint64

	Stats Stats
}

// New builds a TB; the config must validate.
func New(cfg Config) (*TB, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t := &TB{cfg: cfg}
	sets := cfg.Entries / cfg.Assoc
	if cfg.SplitSystem {
		sets /= 2
	}
	t.sets = sets
	t.entries = make([]entry, cfg.Entries)
	return t, nil
}

// Access simulates translating one reference address.
func (t *TB) Access(addr uint32, pid uint8) bool {
	return t.access(addr, pid, true)
}

// Touch updates TB state for a reference without counting it in the
// statistics — used for the translation microcode's own PTE lookups,
// which occupy and evict entries but are not architectural translations
// (the hardware's miss counter does not see them either).
func (t *TB) Touch(addr uint32, pid uint8) { t.access(addr, pid, false) }

func (t *TB) access(addr uint32, pid uint8, count bool) bool {
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
	ways[victim] = entry{valid: true, vpn: vpn, pid: effPID, stamp: t.clock}
	return false
}

// FlushProcess invalidates non-system entries (context switch).
func (t *TB) FlushProcess() {
	t.Stats.Flushes++
	for i := range t.entries {
		if t.entries[i].valid && t.entries[i].vpn>>21 != 2 {
			t.entries[i].valid = false
		}
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
	for _, r := range chunk {
		switch r.Kind() {
		case trace.KindCtxSwitch:
			if s.cfg.FlushOnSwitch {
				s.t.FlushProcess()
			}
			continue
		case trace.KindIFetch, trace.KindDRead, trace.KindDWrite:
			if r.Phys() {
				continue
			}
			if !s.cfg.IncludeSystem && !r.User() {
				continue
			}
			s.t.Access(r.Addr(), r.PID())
		case trace.KindPTERead, trace.KindPTEWrite:
			if !s.cfg.WalkRefs || r.Phys() {
				continue
			}
			s.t.Touch(r.Addr(), r.PID())
		}
	}
	return nil
}

// Result reports the simulation so far.
func (s *Sim) Result() (Stats, error) { return s.t.Stats, nil }
