package stackdist

import (
	"math/rand"
	"testing"
	"testing/quick"

	"atum/internal/cache"
	"atum/internal/trace"
)

// analyze is the engine's profile of a block stream.
func analyze(blocks []uint64) *Profile {
	return &run(blocks, defaultTableSlots, defaultTreeCap).p
}

func TestSimpleDistances(t *testing.T) {
	// Stream: A B A C B A — distances: A cold, B cold, A=2, C cold,
	// B=3 (C,A above it), A=3 (B,C above it).
	p := analyze([]uint64{1, 2, 1, 3, 2, 1})
	if p.Cold != 3 {
		t.Errorf("cold = %d, want 3", p.Cold)
	}
	if p.Total != 6 {
		t.Errorf("total = %d", p.Total)
	}
	// Depth histogram: one at depth 2, two at depth 3.
	if len(p.Depths) != 3 || p.Depths[1] != 1 || p.Depths[2] != 2 {
		t.Errorf("depths = %v", p.Depths)
	}
	// Capacity 3 holds everything: only cold misses.
	if p.Misses(3) != 3 {
		t.Errorf("misses(3) = %d", p.Misses(3))
	}
	// Capacity 2: the two depth-3 references also miss.
	if p.Misses(2) != 5 {
		t.Errorf("misses(2) = %d", p.Misses(2))
	}
	if p.MaxDepth() != 3 {
		t.Errorf("max depth = %d", p.MaxDepth())
	}
}

func TestRepeatedSingleBlock(t *testing.T) {
	stream := make([]uint64, 100)
	p := analyze(stream)
	if p.Cold != 1 || p.Depths[0] != 99 {
		t.Errorf("cold=%d depths=%v", p.Cold, p.Depths)
	}
	if p.MissRate(1) != 0.01 {
		t.Errorf("miss rate = %f", p.MissRate(1))
	}
}

func TestLoopPattern(t *testing.T) {
	// Cyclic sweep over N blocks: with capacity >= N everything hits
	// after warmup; below N, LRU misses every time. N at and just past
	// the top's depth puts every reuse on its last entry or just below.
	for _, N := range []int{16, topDepth, topDepth + 1, 300} {
		var stream []uint64
		for i := 0; i < 10*N; i++ {
			stream = append(stream, uint64(i%N))
		}
		p := analyze(stream)
		if got := p.Misses(N); got != uint64(N) {
			t.Errorf("N=%d: misses(N) = %d, want %d (cold only)", N, got, N)
		}
		if got := p.Misses(N - 1); got != uint64(len(stream)) {
			t.Errorf("N=%d: misses(N-1) = %d, want %d (LRU thrashes a cyclic scan)", N, got, len(stream))
		}
	}
}

func TestMonotonicity(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		stream := make([]uint64, 2000)
		for i := range stream {
			stream[i] = uint64(r.Intn(200))
		}
		p := analyze(stream)
		prev := uint64(1 << 62)
		for c := 1; c <= 256; c *= 2 {
			m := p.Misses(c)
			if m > prev {
				return false
			}
			prev = m
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestAgreesWithCacheSimulator is the cross-validation: the one-pass
// profile must predict exactly the miss counts the explicit
// fully-associative LRU cache simulator produces, at every size.
func TestAgreesWithCacheSimulator(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	recs := make([]trace.Word, 30000)
	for i := range recs {
		var addr uint32
		switch r.Intn(3) {
		case 0:
			addr = uint32(r.Intn(64)) * 16 // hot set
		case 1:
			addr = 0x10000 + uint32(r.Intn(1024))*16
		default:
			addr = uint32(r.Intn(1<<20)) &^ 15
		}
		recs[i] = trace.Pack(trace.KindDRead, addr, 4, 1, true, false, 0)
	}
	const blockBytes = 16
	prof := FromSource(trace.NewArena(recs), Options{BlockBytes: blockBytes, PIDTag: true})

	for _, capacity := range []int{4, 16, 64, 256, 1024} {
		cfg := cache.Config{
			Label:         "fa",
			SizeBytes:     uint32(capacity) * blockBytes,
			BlockBytes:    blockBytes,
			Assoc:         uint32(capacity), // fully associative
			Replacement:   cache.LRU,
			WriteAllocate: true,
			PIDTags:       true,
		}
		sim, err := cache.NewUnifiedSim(cfg, cache.RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.Feed(recs); err != nil {
			t.Fatal(err)
		}
		res, err := sim.Result()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := prof.Misses(capacity), res.Stats.Misses; got != want {
			t.Errorf("capacity %d: stackdist misses %d, simulator %d", capacity, got, want)
		}
	}
}

func TestBlocksFiltering(t *testing.T) {
	blocks := mapBlocks
	recs := []trace.Word{
		trace.Pack(trace.KindIFetch, 0x200, 4, 1, true, false, 0),
		trace.Pack(trace.KindDRead, 0x80000200, 4, 1, false, false, 0),
		trace.Pack(trace.KindPTERead, 0x80010000, 4, 1, false, false, 0),
		trace.Pack(trace.KindCtxSwitch, 0, 0, 0, false, false, 2),
		trace.Pack(trace.KindDRead, 0x200, 4, 2, true, false, 0),
	}
	all := blocks(recs, Options{BlockBytes: 16, PIDTag: true, IncludePTE: true})
	if len(all) != 4 {
		t.Errorf("blocks = %d, want 4", len(all))
	}
	user := blocks(recs, Options{BlockBytes: 16, UserOnly: true})
	if len(user) != 2 {
		t.Errorf("user blocks = %d, want 2", len(user))
	}
	// PID tagging separates the same VA across processes.
	tagged := blocks(recs[0:1], Options{BlockBytes: 16, PIDTag: true})
	tagged2 := blocks(recs[4:5], Options{BlockBytes: 16, PIDTag: true})
	if tagged[0] == tagged2[0] {
		t.Error("PID tag did not separate address spaces")
	}
	// System addresses are shared regardless of PID.
	sysA := blocks([]trace.Word{trace.Pack(trace.KindDRead, 0x80000200, 4, 1, false, false, 0)},
		Options{BlockBytes: 16, PIDTag: true})
	sysB := blocks([]trace.Word{trace.Pack(trace.KindDRead, 0x80000200, 4, 2, false, false, 0)},
		Options{BlockBytes: 16, PIDTag: true})
	if sysA[0] != sysB[0] {
		t.Error("system space wrongly PID-tagged")
	}
}

// TestOptionsValidate: the block mapper shifts by log2 of the block
// size, so a size that is not a power of two would silently round down
// (24 to 16); Validate rejects it and keeps 0 as the 16-byte default.
func TestOptionsValidate(t *testing.T) {
	for _, b := range []uint32{0, 1, 16, 64, 4096} {
		if err := (Options{BlockBytes: b}).Validate(); err != nil {
			t.Errorf("block %d rejected: %v", b, err)
		}
	}
	for _, b := range []uint32{3, 24, 48, 100} {
		if err := (Options{BlockBytes: b}).Validate(); err == nil {
			t.Errorf("block %d accepted", b)
		}
	}
}

func TestEmpty(t *testing.T) {
	for _, p := range []*Profile{analyze(nil), FromSource(trace.NewArena(nil), Options{})} {
		if p.MissRate(16) != 0 || p.Total != 0 || p.MaxDepth() != 0 {
			t.Error("empty stream not handled")
		}
	}
}
