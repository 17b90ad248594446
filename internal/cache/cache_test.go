package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"atum/internal/trace"
)

func mustNew(t *testing.T, cfg Config) *Cache {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func base() Config {
	return Config{SizeBytes: 8 << 10, BlockBytes: 16, Assoc: 2, Replacement: LRU, WriteAllocate: true}
}

// simulate feeds recs through one UnifiedSim and reports its result.
func simulate(recs []trace.Word, cfg Config, opts RunOptions) (Result, error) {
	s, err := NewUnifiedSim(cfg, opts)
	if err != nil {
		return Result{}, err
	}
	if err := s.Feed(recs); err != nil {
		return Result{}, err
	}
	return s.Result()
}

// simulateHierarchy is simulate for a two-level hierarchy.
func simulateHierarchy(recs []trace.Word, cfg HierarchyConfig, opts RunOptions) (HierarchyResult, error) {
	s, err := NewHierarchySim(cfg, opts)
	if err != nil {
		return HierarchyResult{}, err
	}
	if err := s.Feed(recs); err != nil {
		return HierarchyResult{}, err
	}
	return s.Result()
}

func TestValidate(t *testing.T) {
	bad := []Config{
		{},
		{SizeBytes: 1024, BlockBytes: 24, Assoc: 1},    // non-pow2 block
		{SizeBytes: 3 << 10, BlockBytes: 16, Assoc: 1}, // non-pow2 sets
		{SizeBytes: 16, BlockBytes: 16, Assoc: 2},      // zero sets
		{SizeBytes: 24, BlockBytes: 16, Assoc: 1},      // one set holds 16 of the 24 bytes
		{SizeBytes: 16388, BlockBytes: 16, Assoc: 1},   // 1024 sets hold 16384 bytes
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %+v should be invalid", cfg)
		}
	}
	if err := base().Validate(); err != nil {
		t.Errorf("base config invalid: %v", err)
	}
}

func TestHitMissBasics(t *testing.T) {
	c := mustNew(t, base())
	if c.Access(0x1000, false, 1) {
		t.Error("cold access hit")
	}
	if !c.Access(0x1004, false, 1) {
		t.Error("same-block access missed")
	}
	if !c.Access(0x100F, true, 1) {
		t.Error("same-block write missed")
	}
	if c.Access(0x2000, false, 1) {
		t.Error("different block hit")
	}
	if c.Stats.Accesses != 4 || c.Stats.Misses != 2 || c.Stats.Hits != 2 {
		t.Errorf("stats: %+v", c.Stats)
	}
	if c.Stats.ColdMisses != 2 {
		t.Errorf("cold misses: %d", c.Stats.ColdMisses)
	}
	if got := c.Stats.MissRate(); got != 0.5 {
		t.Errorf("miss rate %f", got)
	}
}

func TestLRUReplacement(t *testing.T) {
	cfg := base()
	cfg.SizeBytes = 64 // 2 sets of 2 ways, 16B blocks
	c := mustNew(t, cfg)
	// Three blocks mapping to set 0: block addresses 0, 64, 128.
	c.Access(0, false, 0)
	c.Access(64, false, 0)
	c.Access(0, false, 0)   // touch 0: 64 becomes LRU
	c.Access(128, false, 0) // evicts 64
	if !c.Access(0, false, 0) {
		t.Error("0 evicted despite recent use")
	}
	if c.Access(64, false, 0) {
		t.Error("64 should have been evicted")
	}
}

func TestFIFOReplacement(t *testing.T) {
	cfg := base()
	cfg.SizeBytes = 64
	cfg.Replacement = FIFO
	c := mustNew(t, cfg)
	c.Access(0, false, 0)
	c.Access(64, false, 0)
	c.Access(0, false, 0)   // re-touch does NOT refresh FIFO stamp
	c.Access(128, false, 0) // evicts 0 (oldest insert)
	if c.Access(0, false, 0) {
		t.Error("FIFO should have evicted 0")
	}
}

func TestWriteBackAccounting(t *testing.T) {
	cfg := base()
	cfg.SizeBytes = 64
	c := mustNew(t, cfg)
	c.Access(0, true, 0)    // dirty
	c.Access(64, false, 0)  // clean
	c.Access(128, false, 0) // evicts dirty 0
	if c.Stats.Writebacks != 1 {
		t.Errorf("writebacks = %d, want 1", c.Stats.Writebacks)
	}
	// Write-through never writes back.
	cfg.WritePolicy = WriteThrough
	c2 := mustNew(t, cfg)
	c2.Access(0, true, 0)
	c2.Access(64, false, 0)
	c2.Access(128, false, 0)
	if c2.Stats.Writebacks != 0 {
		t.Errorf("write-through writebacks = %d", c2.Stats.Writebacks)
	}
}

func TestNoWriteAllocate(t *testing.T) {
	cfg := base()
	cfg.WriteAllocate = false
	c := mustNew(t, cfg)
	c.Access(0x100, true, 0) // write miss, not allocated
	if c.Access(0x100, false, 0) {
		t.Error("write miss allocated despite no-write-allocate")
	}
}

func TestPIDTagsPreventAliasing(t *testing.T) {
	cfg := base()
	cfg.PIDTags = true
	c := mustNew(t, cfg)
	c.Access(0x1000, false, 1)
	if c.Access(0x1000, false, 2) {
		t.Error("different PID hit on same VA with PID tags")
	}
	if !c.Access(0x1000, false, 1) {
		t.Error("same PID missed")
	}

	// Without tags the same VA aliases across processes (the hazard the
	// paper warns user-only trace studies about).
	c2 := mustNew(t, base())
	c2.Access(0x1000, false, 1)
	if !c2.Access(0x1000, false, 2) {
		t.Error("untagged cache should false-hit across PIDs")
	}
}

func TestFlush(t *testing.T) {
	c := mustNew(t, base())
	c.Access(0x1000, true, 1)
	c.Access(0x2000, false, 1)
	if c.ResidentLines() != 2 {
		t.Fatalf("resident = %d", c.ResidentLines())
	}
	c.Flush()
	if c.ResidentLines() != 0 {
		t.Error("flush left lines resident")
	}
	if c.Stats.Writebacks != 1 {
		t.Errorf("dirty flush writebacks = %d, want 1", c.Stats.Writebacks)
	}
	if c.Access(0x1000, false, 1) {
		t.Error("hit after flush")
	}
}

// TestMissRateMonotonicInSize is the core sanity property: bigger caches
// cannot miss more on the same LRU-managed trace (inclusion property).
func TestMissRateMonotonicInSize(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	recs := make([]trace.Word, 60000)
	for i := range recs {
		// Mix of looping and random references.
		var addr uint32
		if r.Intn(3) > 0 {
			addr = uint32(r.Intn(2048)) * 4
		} else {
			addr = uint32(r.Intn(1<<20)) &^ 3
		}
		recs[i] = trace.Pack(trace.KindDRead, addr, 4, 1, true, false, 0)
	}
	prev := 1.1
	for _, size := range []uint32{1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10} {
		cfg := base()
		cfg.SizeBytes = size
		cfg.Assoc = size / 16 // fully associative LRU => inclusion holds
		res, err := simulate(recs, cfg, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		mr := res.Stats.MissRate()
		if mr > prev+1e-12 {
			t.Errorf("miss rate rose with size: %d -> %.4f (prev %.4f)", size, mr, prev)
		}
		prev = mr
	}
}

// TestUnifiedSimRouting checks how UnifiedSim routes records: context
// switches flush only a flush-on-switch cache, and PTE references reach
// the cache only with IncludePTE.
func TestUnifiedSimRouting(t *testing.T) {
	recs := []trace.Word{
		trace.Pack(trace.KindDRead, 0x1000, 4, 1, true, false, 0),
		trace.Pack(trace.KindCtxSwitch, 0, 0, 2, false, false, 2),
		trace.Pack(trace.KindDRead, 0x1000, 4, 2, true, false, 0),
	}
	cfg := base()
	cfg.FlushOnSwitch = true
	res, err := simulate(recs, cfg, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Misses != 2 {
		t.Errorf("flush-on-switch misses = %d, want 2", res.Stats.Misses)
	}
	cfg.FlushOnSwitch = false
	res2, _ := simulate(recs, cfg, RunOptions{})
	if res2.Stats.Misses != 1 {
		t.Errorf("no-flush misses = %d, want 1 (aliasing)", res2.Stats.Misses)
	}

	walk := []trace.Word{
		trace.Pack(trace.KindIFetch, 0x200, 4, 1, true, false, 0),
		trace.Pack(trace.KindDRead, 0x1000, 4, 1, true, false, 0),
		trace.Pack(trace.KindPTERead, 0x80010000, 4, 1, false, false, 0),
	}
	for _, include := range []bool{false, true} {
		want := uint64(2)
		if include {
			want = 3
		}
		if res, err := simulate(walk, base(), RunOptions{IncludePTE: include}); err != nil || res.Stats.Accesses != want {
			t.Errorf("IncludePTE=%v: %d accesses (err %v), want %d", include, res.Stats.Accesses, err, want)
		}
	}
}

func TestSweeps(t *testing.T) {
	recs := make([]trace.Word, 2000)
	r := rand.New(rand.NewSource(3))
	for i := range recs {
		recs[i] = trace.Pack(trace.KindDRead, uint32(r.Intn(1<<16))&^3, 4, 1, true, false, 0)
	}
	for _, cfgs := range [][]Config{
		SizeConfigs(base(), []uint32{1 << 10, 8 << 10}),
		BlockConfigs(base(), []uint32{8, 32}),
		AssocConfigs(base(), []uint32{1, 4}),
	} {
		if len(cfgs) != 2 {
			t.Fatalf("derived %d configs, want 2", len(cfgs))
		}
		for _, cfg := range cfgs {
			res, err := simulate(recs, cfg, RunOptions{})
			if err != nil {
				t.Fatalf("%s: %v", cfg.Name(), err)
			}
			if res.Config != cfg || res.Stats.Accesses != uint64(len(recs)) {
				t.Errorf("%s: result %+v", cfg.Name(), res)
			}
		}
	}
	if _, err := simulate(recs, AssocConfigs(base(), []uint32{3})[0], RunOptions{}); err == nil {
		t.Error("invalid associativity accepted")
	}
}

// Property: hits+misses == accesses, and cold misses <= misses.
func TestStatsInvariantProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c, err := New(base())
		if err != nil {
			return false
		}
		for i := 0; i < 500; i++ {
			c.Access(uint32(r.Intn(1<<14)), r.Intn(2) == 0, uint8(r.Intn(3)))
		}
		s := c.Stats
		return s.Hits+s.Misses == s.Accesses && s.ColdMisses <= s.Misses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomReplacementDeterministic(t *testing.T) {
	cfg := base()
	cfg.Replacement = Random
	run := func() Stats {
		c := mustNew(t, cfg)
		r := rand.New(rand.NewSource(5))
		for i := 0; i < 5000; i++ {
			c.Access(uint32(r.Intn(1<<15))&^3, false, 0)
		}
		return c.Stats
	}
	if run() != run() {
		t.Error("random replacement not deterministic across identical runs")
	}
}
