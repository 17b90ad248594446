package cache

import "fmt"

// Hierarchy is a two-level cache: split L1 instruction/data caches in
// front of a unified L2. This is an extension beyond the paper's single-
// level studies (board-level second caches arrived shortly after), used
// by the harness to show how OS references shift traffic between levels.
//
// The model is non-inclusive and write-back between levels: L1 misses
// probe L2; L1 write-backs write into L2; L2 misses and write-backs
// count as memory traffic.
type Hierarchy struct {
	L1I, L1D *Cache
	L2       *Cache

	// MemoryAccesses counts L2 misses plus L2 write-backs — the bus
	// traffic a memory system designer cares about.
	MemoryAccesses uint64
}

// HierarchyConfig parameterises NewHierarchy.
type HierarchyConfig struct {
	L1 Config // applied to both L1I and L1D
	L2 Config
}

// Name returns the hierarchy's reporting name: the two levels' names
// joined level-by-level.
func (c HierarchyConfig) Name() string {
	return c.L1.Name() + "+" + c.L2.Name()
}

// NewHierarchy builds the three caches.
func NewHierarchy(cfg HierarchyConfig) (*Hierarchy, error) {
	i := cfg.L1
	i.Label = cfg.L1.Name() + "-l1i"
	d := cfg.L1
	d.Label = cfg.L1.Name() + "-l1d"
	l2 := cfg.L2
	l2.Label = cfg.L2.Name() + "-l2"
	ic, err := New(i)
	if err != nil {
		return nil, fmt.Errorf("cache: L1I: %w", err)
	}
	dc, err := New(d)
	if err != nil {
		return nil, fmt.Errorf("cache: L1D: %w", err)
	}
	sc, err := New(l2)
	if err != nil {
		return nil, fmt.Errorf("cache: L2: %w", err)
	}
	return &Hierarchy{L1I: ic, L1D: dc, L2: sc}, nil
}

// access sends one reference through the hierarchy.
func (h *Hierarchy) access(l1 *Cache, addr uint32, write bool, pid uint8) {
	wbBefore := l1.Stats.Writebacks
	hit := l1.Access(addr, write, pid)
	// L1 write-backs emitted by this access go to L2 as writes. The
	// victim address is unknown (the simulator doesn't retain it), so
	// the write-back is charged to L2 statistically at the same set —
	// we model it as an L2 write to the same address, which preserves
	// traffic counts if not precise line placement.
	for n := l1.Stats.Writebacks - wbBefore; n > 0; n-- {
		if !h.L2.Access(addr, true, pid) {
			h.MemoryAccesses++
		}
	}
	if hit {
		return
	}
	wb2 := h.L2.Stats.Writebacks
	if !h.L2.Access(addr, write, pid) {
		h.MemoryAccesses++
	}
	h.MemoryAccesses += h.L2.Stats.Writebacks - wb2
}

// HierarchyResult reports a trace-driven hierarchy simulation.
type HierarchyResult struct {
	L1I, L1D, L2 Stats
	// GlobalL2MissRate is L2 misses over total references — the miss
	// rate seen by memory.
	GlobalL2MissRate float64
	MemoryAccesses   uint64
}
