package cache

import (
	"testing"

	"atum/internal/trace"
)

func hierCfg() HierarchyConfig {
	return HierarchyConfig{
		L1: Config{Label: "h", SizeBytes: 1 << 10, BlockBytes: 16, Assoc: 1,
			Replacement: LRU, WriteAllocate: true, PIDTags: true},
		L2: Config{Label: "h", SizeBytes: 16 << 10, BlockBytes: 16, Assoc: 4,
			Replacement: LRU, WriteAllocate: true, PIDTags: true},
	}
}

func TestHierarchyRouting(t *testing.T) {
	recs := []trace.Word{
		trace.Pack(trace.KindIFetch, 0x200, 4, 1, true, false, 0),
		trace.Pack(trace.KindIFetch, 0x204, 4, 1, true, false, 0),
		trace.Pack(trace.KindDRead, 0x1000, 4, 1, true, false, 0),
		trace.Pack(trace.KindDWrite, 0x1004, 4, 1, true, false, 0),
		trace.Pack(trace.KindPTERead, 0x1008, 4, 1, false, false, 0),
	}
	res, err := simulateHierarchy(recs, hierCfg(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.L1I.Accesses != 2 || res.L1D.Accesses != 2 {
		t.Errorf("routing: i=%d d=%d", res.L1I.Accesses, res.L1D.Accesses)
	}
	// PTE references reach the data side only when asked for.
	if pte, err := simulateHierarchy(recs, hierCfg(), RunOptions{IncludePTE: true}); err != nil || pte.L1D.Accesses != 3 {
		t.Errorf("IncludePTE: L1D accesses %d (err %v), want 3", pte.L1D.Accesses, err)
	}
	// Two compulsory misses reach L2 (one I, one D block).
	if res.L2.Accesses != 2 || res.L2.Misses != 2 {
		t.Errorf("L2: %+v", res.L2)
	}
	if res.MemoryAccesses != 2 {
		t.Errorf("memory accesses = %d, want 2", res.MemoryAccesses)
	}
}

func TestHierarchyL2CatchesL1Conflicts(t *testing.T) {
	// Two data blocks conflicting in the 1KB direct-mapped L1 but
	// coexisting in the 4-way L2: after warmup, every L1 miss hits L2.
	var recs []trace.Word
	for i := 0; i < 200; i++ {
		recs = append(recs,
			trace.Pack(trace.KindDRead, 0x0000, 4, 1, true, false, 0),
			trace.Pack(trace.KindDRead, 0x0400, 4, 1, true, false, 0), // same L1 set
		)
	}
	res, err := simulateHierarchy(recs, hierCfg(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.L1D.MissRate() < 0.9 {
		t.Errorf("L1 conflict rate %.3f, want ~1", res.L1D.MissRate())
	}
	if res.L2.Misses != 2 {
		t.Errorf("L2 misses = %d, want 2 (compulsory only)", res.L2.Misses)
	}
	if res.GlobalL2MissRate > 0.01 {
		t.Errorf("global L2 miss rate %.4f, want ~0", res.GlobalL2MissRate)
	}
}

func TestHierarchyWritebackTraffic(t *testing.T) {
	// Dirty a line, evict it via a conflicting block: the write-back
	// must appear as an L2 write, not as memory traffic (L2 absorbs it).
	recs := []trace.Word{
		trace.Pack(trace.KindDWrite, 0x0000, 4, 1, true, false, 0),
		trace.Pack(trace.KindDRead, 0x0400, 4, 1, true, false, 0), // evicts dirty
		trace.Pack(trace.KindDRead, 0x0000, 4, 1, true, false, 0), // L1 miss, L2 hit
	}
	res, err := simulateHierarchy(recs, hierCfg(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.L1D.Writebacks != 1 {
		t.Errorf("L1 writebacks = %d, want 1", res.L1D.Writebacks)
	}
	// Memory saw only the two compulsory block fetches.
	if res.MemoryAccesses != 2 {
		t.Errorf("memory accesses = %d, want 2", res.MemoryAccesses)
	}
	if res.L2.Hits == 0 {
		t.Error("re-reference did not hit L2")
	}
}

func TestHierarchyFlushOnSwitch(t *testing.T) {
	cfg := hierCfg()
	cfg.L1.FlushOnSwitch = true
	cfg.L1.PIDTags = false
	cfg.L2.PIDTags = false
	recs := []trace.Word{
		trace.Pack(trace.KindDRead, 0x100, 4, 1, true, false, 0),
		trace.Pack(trace.KindCtxSwitch, 0, 0, 2, false, false, 2),
		trace.Pack(trace.KindDRead, 0x100, 4, 2, true, false, 0),
	}
	res, err := simulateHierarchy(recs, cfg, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.L1D.Misses != 2 {
		t.Errorf("flush: L1D misses = %d, want 2", res.L1D.Misses)
	}
	if res.L1D.Flushes != 1 {
		t.Errorf("flushes = %d", res.L1D.Flushes)
	}
}

func TestHierarchyConfigErrors(t *testing.T) {
	bad := hierCfg()
	bad.L2.BlockBytes = 24
	if _, err := NewHierarchy(bad); err == nil {
		t.Error("invalid L2 accepted")
	}
	bad = hierCfg()
	bad.L1.Assoc = 0
	if _, err := NewHierarchy(bad); err == nil {
		t.Error("invalid L1 accepted")
	}
}

// TestHierarchyFlushesOnlyFlushingLevels: a context switch flushes each
// level whose configuration asks for it and leaves the others alone, so
// a PID-tagged L2 behind flushing L1s keeps its lines, and PID-tagged
// L1s in front of a flushing L2 keep theirs.
func TestHierarchyFlushesOnlyFlushingLevels(t *testing.T) {
	recs := []trace.Word{
		trace.Pack(trace.KindDRead, 0x1000, 4, 1, true, false, 0),
		trace.Pack(trace.KindCtxSwitch, 0, 0, 2, false, false, 2),
		trace.Pack(trace.KindCtxSwitch, 0, 0, 1, false, false, 1),
		trace.Pack(trace.KindDRead, 0x1000, 4, 1, true, false, 0),
	}

	l1Flush := hierCfg()
	l1Flush.L1.PIDTags, l1Flush.L1.FlushOnSwitch = false, true
	res, err := simulateHierarchy(recs, l1Flush, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.L1I.Flushes != 2 || res.L1D.Flushes != 2 || res.L1D.Invalidated != 1 {
		t.Errorf("flushing L1: L1I %+v, L1D %+v; want 2 flushes each, 1 line dropped from L1D", res.L1I, res.L1D)
	}
	if res.L2.Flushes != 0 || res.L2.Invalidated != 0 || res.L2.Hits != 1 {
		t.Errorf("PID-tagged L2 behind a flushing L1: %+v; want no flushes and the re-read to hit", res.L2)
	}

	l2Flush := hierCfg()
	l2Flush.L2.PIDTags, l2Flush.L2.FlushOnSwitch = false, true
	if res, err = simulateHierarchy(recs, l2Flush, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	if res.L1I.Flushes != 0 || res.L1D.Flushes != 0 || res.L1D.Hits != 1 {
		t.Errorf("PID-tagged L1s in front of a flushing L2: L1I %+v, L1D %+v; want no flushes and the re-read to hit", res.L1I, res.L1D)
	}
	if res.L2.Flushes != 2 || res.L2.Invalidated != 1 {
		t.Errorf("flushing L2: %+v; want 2 flushes, 1 line dropped", res.L2)
	}
}
