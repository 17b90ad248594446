package sweep

import (
	"reflect"
	"testing"

	"atum/internal/cache"
	"atum/internal/tlbsim"
	"atum/internal/trace"
)

// stressTrace builds a deterministic synthetic mix — several processes
// with distinct working sets, context switches, kernel references and
// PTE walks — without booting the simulated machine, so the race stress
// test stays fast under -race.
func stressTrace(n int) []trace.Word {
	recs := make([]trace.Word, 0, n)
	seed := uint32(0x2545F491)
	rng := func() uint32 {
		seed = seed*1664525 + 1013904223
		return seed
	}
	pid := uint8(1)
	for len(recs) < n {
		if rng()%512 == 0 {
			pid = uint8(1 + rng()%4)
			recs = append(recs, trace.Pack(trace.KindCtxSwitch, 0, 0, pid, false, false, uint16(pid)))
			continue
		}
		r := rng()
		kind, addr, user := trace.KindIFetch, uint32(0), true
		// Per-process working set with a shared system-space tail and an
		// occasional PTE walk reference.
		switch r % 16 {
		case 0, 1, 2:
			kind = trace.KindDRead
			addr = 0x8000_0000 | (r % 8192 * 4) // S0 space
			user = false
		case 3:
			kind = trace.KindPTERead
			addr = 0x8000_8000 | (r % 1024 * 4)
			user = false
		case 4, 5, 6, 7:
			kind = trace.KindDRead
			addr = uint32(pid)<<16 | (r % 4096 * 4)
		case 8:
			kind = trace.KindDWrite
			addr = uint32(pid)<<16 | (r % 4096 * 4)
		default:
			kind = trace.KindIFetch
			addr = 0x0001_0000 | uint32(pid)<<12 | (r % 2048 * 4)
		}
		recs = append(recs, trace.Pack(kind, addr, 4, pid, user, false, 0))
	}
	return recs
}

// TestStressSharedArena replays one shared arena through many
// configurations at once with a saturated pool, and checks every result
// against the serial reference. Run under -race (the CI job does), this
// is the proof that the arena is genuinely read-only to every simulator:
// caches, hierarchies and translation buffers.
func TestStressSharedArena(t *testing.T) {
	src := trace.NewArena(stressTrace(200_000))
	opts := cache.RunOptions{IncludePTE: true}

	base := cache.Config{
		Label: "stress", SizeBytes: 4 << 10, BlockBytes: 16, Assoc: 2,
		Replacement: cache.LRU, WritePolicy: cache.WriteBack,
		WriteAllocate: true, PIDTags: true,
	}
	var cfgs []cache.Config
	for _, sized := range cache.SizeConfigs(base, []uint32{1 << 10, 4 << 10, 16 << 10}) {
		cfgs = append(cfgs, cache.AssocConfigs(sized, []uint32{1, 2, 4, 8})...)
	}
	rnd := base
	rnd.Replacement = cache.Random
	rnd.Label = "stress-random"
	flush := base
	flush.PIDTags = false
	flush.FlushOnSwitch = true
	flush.Label = "stress-flush"
	cfgs = append(cfgs, rnd, flush) // 14 cache configs

	serial, err := Caches(src, cfgs, opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Caches(src, cfgs, opts, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Error("cache sweep: parallel results differ from serial")
	}

	hcfgs := []cache.HierarchyConfig{
		{L1: base, L2: cache.Config{Label: "l2", SizeBytes: 32 << 10, BlockBytes: 16, Assoc: 4,
			Replacement: cache.LRU, WritePolicy: cache.WriteBack, WriteAllocate: true, PIDTags: true}},
		{L1: base, L2: cache.Config{Label: "l2", SizeBytes: 64 << 10, BlockBytes: 16, Assoc: 4,
			Replacement: cache.LRU, WritePolicy: cache.WriteBack, WriteAllocate: true, PIDTags: true}},
	}
	hs, err := Hierarchies(src, hcfgs, opts, 8)
	if err != nil {
		t.Fatal(err)
	}
	hserial, err := Hierarchies(src, hcfgs, opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(hs, hserial) {
		t.Error("hierarchy sweep: parallel results differ from serial")
	}

	tcfgs := []tlbsim.Config{
		{Entries: 64, Assoc: 2, SplitSystem: true, PIDTags: true, IncludeSystem: true, WalkRefs: true},
		{Entries: 256, Assoc: 2, SplitSystem: true, FlushOnSwitch: true, IncludeSystem: true},
	}
	ts, err := TBs(src, tcfgs, 8)
	if err != nil {
		t.Fatal(err)
	}
	tserial, err := TBs(src, tcfgs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ts, tserial) {
		t.Error("TB sweep: parallel results differ from serial")
	}
}
