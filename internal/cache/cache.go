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

type line struct {
	valid bool
	tag   uint32
	pid   uint8
	dirty bool
	// lastUse for LRU; insertTime for FIFO.
	stamp uint64
}

// Cache is one simulated cache.
type Cache struct {
	cfg Config

	sets     uint32
	blkShift uint32
	lines    []line // sets*assoc
	clock    uint64
	rng      uint32

	seen *stats.U64Set // block addresses ever touched (cold-miss accounting)

	Stats Stats
}

// New builds a cache; the config must validate.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sets := cfg.SizeBytes / cfg.BlockBytes / cfg.Assoc
	c := &Cache{
		cfg:  cfg,
		sets: sets,
		rng:  0x9E3779B9,
		// A trace that misses at all touches at least as many distinct
		// blocks as the cache holds; presize for that so early misses
		// don't rehash.
		seen: stats.NewU64Set(int(sets * cfg.Assoc)),
	}
	for cfg.BlockBytes>>c.blkShift != 1 {
		c.blkShift++
	}
	c.lines = make([]line, sets*cfg.Assoc)
	return c, nil
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Access simulates one reference and reports whether it hit.
func (c *Cache) Access(addr uint32, write bool, pid uint8) bool {
	c.clock++
	c.Stats.Accesses++

	block := addr >> c.blkShift
	set := block & (c.sets - 1)
	tag := block >> 0 // full block number kept as tag for simplicity
	base := set * c.cfg.Assoc
	ways := c.lines[base : base+c.cfg.Assoc]

	for i := range ways {
		l := &ways[i]
		if l.valid && l.tag == tag && (!c.cfg.PIDTags || l.pid == pid) {
			c.Stats.Hits++
			if write {
				if c.cfg.WritePolicy == WriteBack {
					l.dirty = true
				}
			}
			if c.cfg.Replacement == LRU {
				l.stamp = c.clock
			}
			return true
		}
	}

	c.Stats.Misses++
	key := uint64(block)
	if c.cfg.PIDTags {
		key |= uint64(pid) << 40
	}
	if c.seen.Add(key) {
		c.Stats.ColdMisses++
	}

	if write && !c.cfg.WriteAllocate {
		return false // write miss without allocation: no line changes
	}

	// Choose a victim: invalid line first, else by policy.
	victim := -1
	for i := range ways {
		if !ways[i].valid {
			victim = i
			break
		}
	}
	if victim < 0 {
		switch c.cfg.Replacement {
		case LRU, FIFO:
			victim = 0
			for i := 1; i < len(ways); i++ {
				if ways[i].stamp < ways[victim].stamp {
					victim = i
				}
			}
		case Random:
			c.rng ^= c.rng << 13
			c.rng ^= c.rng >> 17
			c.rng ^= c.rng << 5
			victim = int(c.rng % uint32(len(ways)))
		}
	}
	v := &ways[victim]
	if v.valid && v.dirty {
		c.Stats.Writebacks++
	}
	*v = line{valid: true, tag: tag, pid: pid, dirty: write && c.cfg.WritePolicy == WriteBack, stamp: c.clock}
	return false
}

// Flush invalidates the whole cache (context switch without PID tags).
func (c *Cache) Flush() {
	c.Stats.Flushes++
	for i := range c.lines {
		if c.lines[i].valid {
			c.Stats.Invalidated++
			if c.lines[i].dirty {
				c.Stats.Writebacks++
			}
			c.lines[i].valid = false
		}
	}
}

// ResidentLines counts valid lines (inspection/testing).
func (c *Cache) ResidentLines() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].valid {
			n++
		}
	}
	return n
}
