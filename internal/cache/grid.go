package cache

import (
	"cmp"
	"fmt"
	"slices"

	"atum/internal/stats"
	"atum/internal/trace"
)

// GridSim stack-simulates a class of LRU, write-allocate caches in one
// pass: it routes each record once and updates one LRU stack per set
// count instead of one Cache per configuration.
//
// Inclusion (Mattson et al. 1970): with LRU replacement and write
// allocation, an a-way set holds exactly the a most recently used
// distinct blocks that map to it since the last flush. So caches that
// share a set count share one recency stack per set, cut at their
// largest associativity, and a reference found at stack depth d hits in
// every member with more than d ways (Hill & Smith 1989). A depth
// histogram gives every member's hits.
//
// Write-backs (Thompson & Smith 1989): each stack entry carries a dirty
// threshold t, meaning the block is dirty in every member of t or more
// ways that holds it. A write sets t to 1; a read found at depth d
// reloads the block clean in the members of d or fewer ways, so t
// becomes max(t, d+1); a miss enters the block clean everywhere. An
// entry pushed from depth j-1 to depth j leaves the j-way member, and
// is written back there when j >= t. A flush invalidates and writes
// back from the stack the same way.
//
// Nesting: set counts are powers of two, so the blocks that share a
// block's set under more sets are a subset of those that share it under
// fewer. Its depth can only fall as the set count grows, and every miss
// with more sets is a miss with fewer sets and the same ways, so a block
// dirty in one group's 1-way member is dirty in every later group's.
// Feed therefore walks the groups from fewest sets up and stops at the
// first whose set has the block on top with nothing to change: a read,
// or a write to a block with threshold 1. The block is on top,
// unchanged, in every later group too. A member's hits are the walks
// that stopped at its group or an earlier one, plus its group's depth
// histogram below its ways.
//
// Cold misses depend only on the block address and PID keying, so the
// class keeps one seen-set for all its members. A block found in any
// group has been referenced before, so only a reference found in none
// consults it.
type GridSim struct {
	cfgs      []Config
	at        []gridSlot // per config: its group and slot
	rt        router
	blkShift  uint32
	pidTags   bool
	flush     bool
	writeBack bool

	groups []stackGroup // by ascending set count
	seen   *stats.U64Set

	accesses, cold, flushes uint64
}

type gridSlot struct{ group, slot int }

// Stack entries pack a block's key and its dirty threshold into 8
// bytes: the block number in bits 0-31, the PID tag in bits 32-39, a
// valid bit (so an empty entry matches no key) and the threshold above.
const (
	entryValid = 1 << 40
	keyMask    = 1<<41 - 1
	tShift     = 41
	tClean     = 1<<(64-tShift) - 1 // threshold of a block clean in every member
	emptyEntry = tClean << tShift
)

// stackGroup is the recency stacks of the class members that share one
// set count, cut at their largest associativity.
type stackGroup struct {
	sets  uint32
	depth int      // the largest member associativity
	stack []uint64 // sets*depth entries, most recent first in each set
	hist  []uint64 // stack hits by depth, of walks that went on past this group
	stops uint64   // walks that stopped here, hits in this and every later group

	assoc []uint32 // per slot (one distinct member associativity)
	slot  []int32  // slot by associativity, -1 where no member has that many ways
	wb    []uint64 // write-backs per slot
	inval []uint64 // lines dropped by flushes per slot
}

// gridEligible reports whether GridSim can simulate cfg: a valid LRU,
// write-allocate configuration whose ways fit the dirty threshold.
// FIFO, Random and no-write-allocate caches break inclusion and need
// their own Cache.
func (c Config) gridEligible() bool {
	return c.Validate() == nil && c.Replacement == LRU && c.WriteAllocate && c.Assoc < tClean
}

// gridClass is what the members of one GridSim share.
type gridClass struct {
	block          uint32
	pidTags, flush bool
	policy         WritePolicy
}

func (c Config) gridClass() gridClass {
	return gridClass{c.BlockBytes, c.PIDTags, c.FlushOnSwitch, c.WritePolicy}
}

// GridClasses splits cfgs by the simulator that runs them. Each element
// of classes lists, in configuration order, the indices of the
// configurations one GridSim simulates together: eligible ones sharing
// block size, PIDTags, FlushOnSwitch and WritePolicy. rest lists the
// configurations that need a UnifiedSim each — FIFO, Random,
// no-write-allocate, and any that do not validate.
func GridClasses(cfgs []Config) (classes [][]int, rest []int) {
	index := map[gridClass]int{}
	for i, c := range cfgs {
		if !c.gridEligible() {
			rest = append(rest, i)
			continue
		}
		k, ok := index[c.gridClass()]
		if !ok {
			k = len(classes)
			index[c.gridClass()] = k
			classes = append(classes, nil)
		}
		classes[k] = append(classes[k], i)
	}
	return classes, rest
}

// NewGridSim returns a simulator for cfgs, which must be one of the
// classes GridClasses forms; Result reports them in the same order.
func NewGridSim(cfgs []Config, opts RunOptions) (*GridSim, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("cache: grid with no configurations")
	}
	class := cfgs[0].gridClass()
	for _, c := range cfgs {
		if err := c.Validate(); err != nil {
			return nil, err
		}
		if !c.gridEligible() || c.gridClass() != class {
			return nil, fmt.Errorf("cache: %s cannot join the grid of %s", c.Name(), cfgs[0].Name())
		}
	}
	rt, err := newRouter(opts, class.block)
	if err != nil {
		return nil, err
	}
	s := &GridSim{
		cfgs: cfgs, at: make([]gridSlot, len(cfgs)), rt: rt,
		pidTags: class.pidTags, flush: class.flush, writeBack: class.policy == WriteBack,
	}
	for class.block>>s.blkShift != 1 {
		s.blkShift++
	}

	// One group per set count, from fewest sets up (see Feed), holding a
	// slot per distinct associativity.
	sets := func(c Config) uint32 { return c.SizeBytes / c.BlockBytes / c.Assoc }
	var counts []uint32
	for _, c := range cfgs {
		counts = append(counts, sets(c))
	}
	slices.Sort(counts)
	for _, n := range slices.Compact(counts) {
		s.groups = append(s.groups, stackGroup{sets: n})
	}
	for i, c := range cfgs {
		g := slices.IndexFunc(s.groups, func(sg stackGroup) bool { return sg.sets == sets(c) })
		sg := &s.groups[g]
		slot := slices.Index(sg.assoc, c.Assoc)
		if slot < 0 {
			slot = len(sg.assoc)
			sg.assoc = append(sg.assoc, c.Assoc)
		}
		s.at[i] = gridSlot{g, slot}
		sg.depth = max(sg.depth, int(c.Assoc))
	}
	for g := range s.groups {
		sg := &s.groups[g]
		sg.stack = make([]uint64, int(sg.sets)*sg.depth)
		for i := range sg.stack {
			sg.stack[i] = emptyEntry
		}
		sg.hist = make([]uint64, sg.depth)
		sg.slot = make([]int32, sg.depth+1)
		for a := range sg.slot {
			sg.slot[a] = int32(slices.Index(sg.assoc, uint32(a)))
		}
		sg.wb = make([]uint64, len(sg.assoc))
		sg.inval = make([]uint64, len(sg.assoc))
	}
	// As in Cache: a trace that misses at all touches at least as many
	// distinct blocks as the largest member holds.
	largest := slices.MaxFunc(cfgs, func(a, b Config) int { return cmp.Compare(a.SizeBytes, b.SizeBytes) })
	s.seen = stats.NewU64Set(int(largest.SizeBytes / largest.BlockBytes))
	return s, nil
}

// Feed routes one chunk of records through the groups, each reference
// from the fewest sets up to the first group where it changes nothing.
func (s *GridSim) Feed(chunk []trace.Word) error {
	for _, r := range chunk {
		op, pid := s.rt.route(r)
		if op < opIFetch {
			if op == opSwitch && s.flush {
				s.flushAll()
			}
			continue
		}
		block := r.Addr() >> s.blkShift
		key := uint64(block) | entryValid
		if s.pidTags {
			key |= uint64(pid) << 32
		}
		s.accesses++
		dirtying := op == opWrite && s.writeBack
		found := false
		for g := range s.groups {
			in, stop := s.groups[g].access(block, key, dirtying)
			found = found || in
			if stop {
				break
			}
		}
		if !found && s.seen.Add(key) {
			s.cold++
		}
	}
	return nil
}

// access moves key to the top of its set's stack and reports whether it
// was in the stack. A key already on top with nothing to change (a read,
// or a write with threshold 1) counts as a stop instead, and access
// reports stop: the walk ends here (see GridSim).
func (g *stackGroup) access(block uint32, key uint64, dirtying bool) (found, stop bool) {
	base := int(block&(g.sets-1)) * g.depth
	st := g.stack[base : base+g.depth : base+g.depth]
	e := st[0]
	if e&keyMask == key {
		if !dirtying || e>>tShift == 1 {
			g.stops++
			return true, true
		}
		g.hist[0]++
		st[0] = key | 1<<tShift
		return true, false
	}
	// One pass searches and shifts: each entry above the key moves down
	// one, leaving the member whose ways it now exceeds.
	d := 1
	for ; d < len(st); d++ {
		if e>>tShift <= uint64(d) {
			g.writeback(d)
		}
		e, st[d] = st[d], e
		if e&keyMask == key {
			break
		}
	}
	t := uint64(tClean)
	if d < len(st) {
		found = true
		g.hist[d]++
		t = max(e>>tShift, uint64(d+1))
	} else if e>>tShift <= uint64(len(st)) {
		// A miss: the bottom entry leaves the largest member.
		g.writeback(len(st))
	}
	if dirtying {
		t = 1
	}
	st[0] = key | t<<tShift
	return found, false
}

// writeback counts a dirty block leaving the member of the given ways,
// if there is one.
func (g *stackGroup) writeback(ways int) {
	if s := g.slot[ways]; s >= 0 {
		g.wb[s]++
	}
}

// flushAll invalidates every stack at a context switch.
func (s *GridSim) flushAll() {
	s.flushes++
	for gi := range s.groups {
		g := &s.groups[gi]
		for base := 0; base < len(g.stack); base += g.depth {
			st := g.stack[base : base+g.depth]
			n := 0
			for d, e := range st {
				if e&entryValid == 0 {
					break
				}
				n = d + 1
				if t := e >> tShift; t != tClean {
					// Dirty in the members that hold it (more than d ways)
					// from t ways up.
					lo := max(uint64(d+1), t)
					for j, a := range g.assoc {
						if uint64(a) >= lo {
							g.wb[j]++
						}
					}
				}
				st[d] = emptyEntry
			}
			for j, a := range g.assoc {
				g.inval[j] += uint64(min(n, int(a)))
			}
		}
	}
}

// Result reports every configuration's statistics so far, in the order
// NewGridSim was given them.
func (s *GridSim) Result() ([]Result, error) {
	out := make([]Result, len(s.cfgs))
	for i, c := range s.cfgs {
		gi, slot := s.at[i].group, s.at[i].slot
		var hits uint64
		for _, g := range s.groups[:gi+1] {
			hits += g.stops
		}
		g := &s.groups[gi]
		for _, h := range g.hist[:g.assoc[slot]] {
			hits += h
		}
		out[i] = Result{Config: c, Stats: Stats{
			Accesses:    s.accesses,
			Hits:        hits,
			Misses:      s.accesses - hits,
			ColdMisses:  s.cold,
			Writebacks:  g.wb[slot],
			Flushes:     s.flushes,
			Invalidated: g.inval[slot],
		}}
	}
	return out, nil
}
