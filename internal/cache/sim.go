package cache

import "atum/internal/trace"

// Incremental simulators: the only way to drive a cache. Each Sim is
// fed record chunks in trace order — by internal/sweep's Pipeline, or
// directly by a caller holding the records — and reports its result on
// demand. Every Feed loop classifies its records through the shared
// router (route.go).

// UnifiedSim is an incrementally-fed unified cache simulation over one
// Cache: the engine for the configurations GridSim cannot stack-simulate
// (FIFO, Random, no-write-allocate), and for callers that want a cache
// simulated independently of the grid, such as experiment A3's check of
// the Mattson pass.
type UnifiedSim struct {
	c   *Cache
	cfg Config
	rt  router
}

// NewUnifiedSim validates the configuration and returns a simulator
// ready to be fed record chunks.
func NewUnifiedSim(cfg Config, opts RunOptions) (*UnifiedSim, error) {
	c, err := New(cfg)
	if err != nil {
		return nil, err
	}
	rt, err := newRouter(opts, cfg.BlockBytes)
	if err != nil {
		return nil, err
	}
	return &UnifiedSim{c: c, cfg: cfg, rt: rt}, nil
}

// Feed routes one chunk of records into the cache, honouring
// context-switch flushes. The chunk is only read; it may be reused by
// the caller after Feed returns.
func (s *UnifiedSim) Feed(chunk []trace.Word) error {
	c := s.c
	var first uint64 // hits on the first line of their set
	for _, r := range chunk {
		op, pid := s.rt.route(r)
		if op < opIFetch {
			if op == opSwitch && s.cfg.FlushOnSwitch {
				c.Flush()
			}
			continue
		}
		// A hit on the first line of its set changes at most the dirty
		// bit, under every policy (see Cache).
		i, key := c.slot(r.Addr(), pid)
		if l := c.lines[i]; l&lineKey == key {
			first++
			if op == opWrite {
				c.lines[i] = l | c.dirty
			}
			continue
		}
		c.settle(i, key, op == opWrite)
	}
	c.Stats.Accesses += first
	c.Stats.Hits += first
	return nil
}

// Result reports the simulation so far.
func (s *UnifiedSim) Result() (Result, error) {
	return Result{Config: s.cfg, Stats: s.c.Stats}, nil
}

// HierarchySim is an incrementally-fed two-level hierarchy simulation,
// routed like UnifiedSim with instruction fetches to L1I and everything
// else to L1D. Sampling, when enabled, keys on the L1 block address. A
// context switch flushes each level whose configuration asks for it.
type HierarchySim struct {
	h   *Hierarchy
	cfg HierarchyConfig
	rt  router
}

// NewHierarchySim validates the configuration and returns a simulator
// ready to be fed record chunks.
func NewHierarchySim(cfg HierarchyConfig, opts RunOptions) (*HierarchySim, error) {
	h, err := NewHierarchy(cfg)
	if err != nil {
		return nil, err
	}
	rt, err := newRouter(opts, cfg.L1.BlockBytes)
	if err != nil {
		return nil, err
	}
	return &HierarchySim{h: h, cfg: cfg, rt: rt}, nil
}

// Feed routes one chunk of records through the hierarchy.
func (s *HierarchySim) Feed(chunk []trace.Word) error {
	for _, r := range chunk {
		switch op, pid := s.rt.route(r); op {
		case opNone:
		case opSwitch:
			if s.cfg.L1.FlushOnSwitch {
				s.h.L1I.Flush()
				s.h.L1D.Flush()
			}
			if s.cfg.L2.FlushOnSwitch {
				s.h.L2.Flush()
			}
		case opIFetch:
			s.h.access(s.h.L1I, r.Addr(), false, pid)
		default:
			s.h.access(s.h.L1D, r.Addr(), op == opWrite, pid)
		}
	}
	return nil
}

// Result reports the simulation so far.
func (s *HierarchySim) Result() (HierarchyResult, error) {
	res := HierarchyResult{
		L1I:            s.h.L1I.Stats,
		L1D:            s.h.L1D.Stats,
		L2:             s.h.L2.Stats,
		MemoryAccesses: s.h.MemoryAccesses,
	}
	total := res.L1I.Accesses + res.L1D.Accesses
	if total > 0 {
		res.GlobalL2MissRate = float64(res.L2.Misses) / float64(total)
	}
	return res, nil
}
