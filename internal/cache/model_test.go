package cache

import (
	"math/rand"
	"testing"

	"atum/internal/stats"
	"atum/internal/trace"
)

// stampCache is the per-line clock-stamp model Cache replaced: every
// way of a set is scanned on every reference, and a victim is the first
// invalid way, else the way with the oldest stamp (last use under LRU,
// insertion under FIFO), else an xorshift pick under Random. It is kept,
// unchanged in behaviour, as the oracle the packed recency-ordered sets
// are pinned to.
type stampCache struct {
	cfg Config

	sets     uint32
	blkShift uint32
	lines    []stampLine // sets*assoc
	clock    uint64
	rng      uint32

	seen *stats.U64Set

	Stats Stats
}

type stampLine struct {
	valid bool
	tag   uint32
	pid   uint8
	dirty bool
	// lastUse for LRU; insertTime for FIFO.
	stamp uint64
}

func newStampCache(cfg Config) (*stampCache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sets := cfg.SizeBytes / cfg.BlockBytes / cfg.Assoc
	c := &stampCache{cfg: cfg, sets: sets, rng: 0x9E3779B9, seen: stats.NewU64Set(0)}
	for cfg.BlockBytes>>c.blkShift != 1 {
		c.blkShift++
	}
	c.lines = make([]stampLine, sets*cfg.Assoc)
	return c, nil
}

func (c *stampCache) Access(addr uint32, write bool, pid uint8) bool {
	c.clock++
	c.Stats.Accesses++

	block := addr >> c.blkShift
	set := block & (c.sets - 1)
	base := set * c.cfg.Assoc
	ways := c.lines[base : base+c.cfg.Assoc]

	for i := range ways {
		l := &ways[i]
		if l.valid && l.tag == block && (!c.cfg.PIDTags || l.pid == pid) {
			c.Stats.Hits++
			if write && c.cfg.WritePolicy == WriteBack {
				l.dirty = true
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
		return false
	}

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
	*v = stampLine{valid: true, tag: block, pid: pid, dirty: write && c.cfg.WritePolicy == WriteBack, stamp: c.clock}
	return false
}

func (c *stampCache) Flush() {
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

func (c *stampCache) ResidentLines() int {
	n := 0
	for _, l := range c.lines {
		if l.valid {
			n++
		}
	}
	return n
}

// checkAgainstStampModel drives a Cache and the stamp model through the
// same references, drawn from blocks over a few times the cache's
// capacity, and requires the same hit or miss on every access, the same
// resident lines before every flush and the same Stats throughout. Half
// the references reach the Cache through UnifiedSim.Feed, whose loop
// settles a hit on a set's first line itself, and half through Access.
func checkAgainstStampModel(t *testing.T, cfg Config, r *rand.Rand, n int) {
	t.Helper()
	s, err := NewUnifiedSim(cfg, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c := s.c
	m, err := newStampCache(cfg)
	if err != nil {
		t.Fatal(err)
	}
	blocks := 3*int(cfg.SizeBytes/cfg.BlockBytes) + 1
	hot := max(cfg.Assoc, 2)
	for i := range n {
		if r.Intn(500) == 0 {
			if c.ResidentLines() != m.ResidentLines() {
				t.Fatalf("%s %+v: access %d: %d lines resident, model %d", cfg.Name(), cfg, i, c.ResidentLines(), m.ResidentLines())
			}
			c.Flush()
			m.Flush()
			continue
		}
		// Half the references revisit a few blocks of one set, so hits
		// land at every depth; the rest spread over all sets.
		block := uint32(r.Intn(blocks))
		if r.Intn(2) == 0 {
			sets := cfg.SizeBytes / cfg.BlockBytes / cfg.Assoc
			block = uint32(r.Intn(int(hot)+1)) * sets
		}
		addr := block*cfg.BlockBytes + uint32(r.Intn(int(cfg.BlockBytes)))
		write, pid := r.Intn(3) == 0, uint8(r.Intn(3))
		var got bool
		if r.Intn(2) == 0 {
			got = c.Access(addr, write, pid)
		} else {
			kind, hits := trace.KindDRead, c.Stats.Hits
			if write {
				kind = trace.KindDWrite
			}
			if err := s.Feed([]trace.Word{trace.Pack(kind, addr, 4, pid, true, false, 0)}); err != nil {
				t.Fatal(err)
			}
			got = c.Stats.Hits > hits
		}
		if want := m.Access(addr, write, pid); got != want || c.Stats != m.Stats {
			t.Fatalf("%s %+v: access %d (%#x write=%v pid=%d): hit %v, model %v\n got %+v\nwant %+v",
				cfg.Name(), cfg, i, addr, write, pid, got, want, c.Stats, m.Stats)
		}
	}
}

// TestCacheMatchesStampModel pins Cache to the stamp model over every
// replacement policy, write policy, allocation policy and PID tagging,
// from 1 to 1,024 ways, with flushes.
func TestCacheMatchesStampModel(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	n := 20_000
	if testing.Short() {
		n = 2_000
	}
	for _, repl := range []Replacement{LRU, FIFO, Random} {
		for _, wp := range []WritePolicy{WriteBack, WriteThrough} {
			for _, alloc := range []bool{true, false} {
				for _, pidTags := range []bool{false, true} {
					for _, ways := range []uint32{1, 2, 3, 4, 8, 64, 1024} {
						cfg := Config{
							SizeBytes: 8 * ways * 16, BlockBytes: 16, Assoc: ways,
							Replacement: repl, WritePolicy: wp, WriteAllocate: alloc, PIDTags: pidTags,
						}
						if ways == 1024 {
							cfg.SizeBytes = ways * 16 // one set
						}
						checkAgainstStampModel(t, cfg, r, n)
					}
				}
			}
		}
	}
}

// FuzzCacheMatchesStampModel is TestCacheMatchesStampModel over fuzzed
// configurations and reference streams.
func FuzzCacheMatchesStampModel(f *testing.F) {
	// Policy bits: replacement (0-1), write-through (2), no write
	// allocation (3), PID tags (4), block 4<<bits 5-6. Ways is one less
	// than the associativity.
	f.Add(uint8(0), uint16(1), uint8(3), int64(1))
	f.Add(uint8(1|1<<2|1<<3), uint16(3), uint8(2), int64(2))
	f.Add(uint8(2|1<<4|2<<5), uint16(7), uint8(0), int64(3))
	f.Add(uint8(0|1<<4), uint16(1023), uint8(0), int64(4))
	f.Add(uint8(1|1<<3), uint16(299), uint8(1), int64(5))
	f.Add(uint8(2|1<<2|1<<3|1<<4|3<<5), uint16(0), uint8(6), int64(6))
	f.Fuzz(func(t *testing.T, policy uint8, ways uint16, setBits uint8, seed int64) {
		cfg := Config{
			BlockBytes: 4 << (policy >> 5 & 3), Assoc: uint32(ways%1024) + 1,
			Replacement:   Replacement(policy & 3 % 3),
			WritePolicy:   WritePolicy(policy >> 2 & 1),
			WriteAllocate: policy>>3&1 == 0,
			PIDTags:       policy>>4&1 != 0,
		}
		cfg.SizeBytes = cfg.BlockBytes * cfg.Assoc << (setBits % 7)
		checkAgainstStampModel(t, cfg, rand.New(rand.NewSource(seed)), 3_000)
	})
}
