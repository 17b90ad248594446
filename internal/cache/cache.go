// Package cache implements the parameterised cache simulator used for
// the paper's memory-system studies: configurable size, associativity,
// block size, write and allocation policy, replacement policy, split or
// unified instruction/data organisation, and optional invalidation on
// context switch (the no-PID-tag case the mid-80s studies cared about).
//
// The simulator consumes ATUM trace records. Addresses are virtual, as
// in the paper's analyses; process-private address spaces are
// disambiguated either by PID tags in the cache or by flushing on
// context switch, selectable per experiment.
package cache

import (
	"fmt"

	"atum/internal/stats"
)

// Replacement selects a victim within a set.
type Replacement uint8

const (
	LRU Replacement = iota
	FIFO
	Random // deterministic xorshift, seeded per cache
)

func (r Replacement) String() string {
	switch r {
	case LRU:
		return "lru"
	case FIFO:
		return "fifo"
	case Random:
		return "random"
	}
	return fmt.Sprintf("Replacement(%d)", uint8(r))
}

// WritePolicy selects write-through or write-back accounting.
type WritePolicy uint8

const (
	WriteBack WritePolicy = iota
	WriteThrough
)

// Config parameterises one cache.
type Config struct {
	// Label is an optional experiment-assigned tag; Name derives the
	// reported configuration name from it.
	Label string

	SizeBytes  uint32 // total capacity
	BlockBytes uint32 // line size (power of two)
	Assoc      uint32 // ways; SizeBytes/BlockBytes/Assoc sets (power of two)

	Replacement   Replacement
	WritePolicy   WritePolicy
	WriteAllocate bool

	// PIDTags keeps a process tag per line so the same virtual address in
	// different processes does not false-hit. FlushOnSwitch invalidates
	// everything at each context switch instead (the common mid-80s
	// hardware). With neither, different processes alias — the
	// measurement error the paper warned about.
	PIDTags       bool
	FlushOnSwitch bool
}

func (c Config) String() string {
	return fmt.Sprintf("%dKB/%dB/%d-way", c.SizeBytes>>10, c.BlockBytes, c.Assoc)
}

// Name returns the configuration's reporting name — the label when one
// is set, the geometry otherwise. Every simulator configuration names
// itself this way, so reports and sweep registrations agree.
func (c Config) Name() string {
	if c.Label != "" {
		return c.Label
	}
	return c.String()
}

// Validate checks structural parameters.
func (c Config) Validate() error {
	if c.SizeBytes == 0 || c.BlockBytes == 0 || c.Assoc == 0 {
		return fmt.Errorf("cache: zero parameter in %+v", c)
	}
	if c.BlockBytes&(c.BlockBytes-1) != 0 {
		return fmt.Errorf("cache: block size %d not a power of two", c.BlockBytes)
	}
	sets := c.SizeBytes / c.BlockBytes / c.Assoc
	if sets == 0 || sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d not a positive power of two (size=%d block=%d assoc=%d)",
			sets, c.SizeBytes, c.BlockBytes, c.Assoc)
	}
	if uint64(sets)*uint64(c.Assoc)*uint64(c.BlockBytes) != uint64(c.SizeBytes) {
		return fmt.Errorf("cache: size %d is not sets*assoc*block (%d*%d*%d)",
			c.SizeBytes, sets, c.Assoc, c.BlockBytes)
	}
	return nil
}

// Stats accumulates simulation results.
type Stats struct {
	Accesses    uint64
	Hits        uint64
	Misses      uint64
	ColdMisses  uint64 // first-ever reference to the block address
	Writebacks  uint64
	Flushes     uint64
	Invalidated uint64 // lines dropped by flushes
}

// MissRate returns Misses/Accesses.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// A line is one uint64: the block number in bits 0-31, the PID tag in
// bits 32-39 (0 without PID tags), a valid bit and a dirty bit. An
// invalid line is 0, and a line holds a reference's block when its bits
// below lineDirty equal the reference's key (see slot).
const (
	lineValid = 1 << 40
	lineDirty = 1 << 41
	lineKey   = lineDirty - 1
)

// Cache is one simulated cache. Each set keeps its valid lines first,
// in its policy's order: most recently used first under LRU, most
// recently inserted first under FIFO, way order under Random. A
// reference to a set's first line is therefore a hit that changes at
// most the dirty bit under every policy, which is what UnifiedSim.Feed
// settles without a call.
type Cache struct {
	cfg Config

	setMask  uint32
	ways     uint32
	blkShift uint32
	pidMask  uint8    // 0xff with PID tags, 0 without
	dirty    uint64   // lineDirty under write-back, 0 under write-through
	lines    []uint64 // sets*ways
	rng      uint32

	seen *stats.U64Set // line keys ever referenced (cold-miss accounting)

	Stats Stats
}

// New builds a cache; the config must validate.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sets := cfg.SizeBytes / cfg.BlockBytes / cfg.Assoc
	c := &Cache{
		cfg:     cfg,
		setMask: sets - 1,
		ways:    cfg.Assoc,
		rng:     0x9E3779B9,
		lines:   make([]uint64, sets*cfg.Assoc),
		// A trace that misses at all touches at least as many distinct
		// blocks as the cache holds; presize for that so early misses
		// don't rehash.
		seen: stats.NewU64Set(int(sets * cfg.Assoc)),
	}
	for cfg.BlockBytes>>c.blkShift != 1 {
		c.blkShift++
	}
	if cfg.PIDTags {
		c.pidMask = 0xff
	}
	if cfg.WritePolicy == WriteBack {
		c.dirty = lineDirty
	}
	return c, nil
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// slot returns the index of the first line of the set addr maps to, and
// the key of a line holding addr's block for pid.
func (c *Cache) slot(addr uint32, pid uint8) (int, uint64) {
	block := addr >> c.blkShift
	return int(block&c.setMask) * int(c.ways), uint64(block) | uint64(pid&c.pidMask)<<32 | lineValid
}

// Access simulates one reference and reports whether it hit.
func (c *Cache) Access(addr uint32, write bool, pid uint8) bool {
	i, key := c.slot(addr, pid)
	return c.settle(i, key, write)
}

// settle simulates one reference to the set whose first line is at i.
// A hit moves to the front under LRU and stays in place otherwise. An
// LRU or FIFO miss inserts at the front and drops the last line of a
// full set; a Random miss fills the first invalid way, or replaces an
// xorshift-picked way of a full set.
func (c *Cache) settle(i int, key uint64, write bool) bool {
	c.Stats.Accesses++
	set := c.lines[i : i+int(c.ways) : i+int(c.ways)]
	n := len(set) // valid lines
	for d, l := range set {
		if l&lineKey == key {
			c.Stats.Hits++
			if write {
				l |= c.dirty
			}
			if c.cfg.Replacement == LRU {
				copy(set[1:d+1], set[:d])
				d = 0
			}
			set[d] = l
			return true
		}
		if l == 0 {
			n = d
			break
		}
	}

	c.Stats.Misses++
	if c.seen.Add(key) {
		c.Stats.ColdMisses++
	}
	if write && !c.cfg.WriteAllocate {
		return false // write miss without allocation: no line changes
	}
	l := key
	if write {
		l |= c.dirty
	}
	var victim uint64
	switch {
	case c.cfg.Replacement != Random:
		if n == len(set) {
			n--
			victim = set[n]
		}
		copy(set[1:n+1], set[:n])
		set[0] = l
	case n < len(set):
		set[n] = l
	default:
		c.rng ^= c.rng << 13
		c.rng ^= c.rng >> 17
		c.rng ^= c.rng << 5
		d := c.rng % uint32(len(set))
		victim, set[d] = set[d], l
	}
	if victim&lineDirty != 0 {
		c.Stats.Writebacks++
	}
	return false
}

// Flush invalidates the whole cache (context switch without PID tags).
func (c *Cache) Flush() {
	c.Stats.Flushes++
	for _, l := range c.lines {
		if l != 0 {
			c.Stats.Invalidated++
			if l&lineDirty != 0 {
				c.Stats.Writebacks++
			}
		}
	}
	clear(c.lines)
}

// ResidentLines counts valid lines (inspection/testing).
func (c *Cache) ResidentLines() int {
	n := 0
	for _, l := range c.lines {
		if l != 0 {
			n++
		}
	}
	return n
}
