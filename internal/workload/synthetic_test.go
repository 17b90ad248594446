package workload

import (
	"reflect"
	"testing"

	"atum/internal/cache"
	"atum/internal/sweep"
	"atum/internal/trace"
)

func synthBase() SynthConfig {
	return SynthConfig{Seed: 7, Records: 20000, PID: 1, Base: 0x10000, WriteFrac: 25}
}

func runCache(t *testing.T, recs []trace.Word, size uint32) cache.Stats {
	t.Helper()
	return simulate(t, recs, cache.Config{
		Label: "synth", SizeBytes: size, BlockBytes: 16, Assoc: 2,
		Replacement: cache.LRU, WriteAllocate: true, PIDTags: true,
	})
}

// simulate replays recs through one cache configuration.
func simulate(t *testing.T, recs []trace.Word, cfg cache.Config) cache.Stats {
	t.Helper()
	res, err := sweep.Caches(trace.NewArena(recs), []cache.Config{cfg}, cache.RunOptions{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return res[0].Stats
}

func TestSequentialSpatialLocality(t *testing.T) {
	recs := Sequential(synthBase(), 4)
	st := runCache(t, recs, 4<<10)
	// One miss per 16B block of 4 words: miss rate ~= 25%.
	mr := st.MissRate()
	if mr < 0.2 || mr > 0.3 {
		t.Errorf("sequential miss rate %.3f, want ~0.25", mr)
	}
	// Larger blocks cut it proportionally.
	cfg := cache.Config{Label: "b64", SizeBytes: 4 << 10, BlockBytes: 64, Assoc: 2,
		Replacement: cache.LRU, WriteAllocate: true}
	if r := simulate(t, recs, cfg).MissRate(); r < 0.04 || r > 0.09 {
		t.Errorf("64B-block sequential miss rate %.3f, want ~0.0625", r)
	}
}

func TestLoopCapacityCliff(t *testing.T) {
	c := synthBase()
	recs := Loop(c, 8<<10, 16) // 8KB footprint, one ref per block
	small := runCache(t, recs, 4<<10)
	big := runCache(t, recs, 16<<10)
	if small.MissRate() < 0.9 {
		t.Errorf("under-capacity loop miss rate %.3f, want ~1 (LRU adversary)", small.MissRate())
	}
	if big.MissRate() > 0.05 {
		t.Errorf("over-capacity loop miss rate %.3f, want ~0", big.MissRate())
	}
}

func TestWorkingSetCapacityCurve(t *testing.T) {
	recs := WorkingSet(synthBase(), 32<<10)
	small := runCache(t, recs, 2<<10)
	big := runCache(t, recs, 64<<10)
	if small.MissRate() < 5*big.MissRate() {
		t.Errorf("capacity effect missing: small=%.3f big=%.3f", small.MissRate(), big.MissRate())
	}
}

func TestZipfSkew(t *testing.T) {
	recs := Zipf(synthBase(), 512, 1.3)
	// Hot pages mean a small cache still hits much more than uniform
	// references over the same footprint would.
	st := runCache(t, recs, 4<<10)
	uniform := runCache(t, WorkingSet(synthBase(), 512<<9), 4<<10)
	if st.MissRate() > 0.8*uniform.MissRate() {
		t.Errorf("zipf miss rate %.3f not clearly below uniform %.3f",
			st.MissRate(), uniform.MissRate())
	}
	// And the distribution must be skewed: page 0 referenced far more
	// than the median page.
	counts := map[uint32]int{}
	for _, r := range recs {
		counts[r.Addr()>>9]++
	}
	if counts[recs[0].Addr()>>9] == 0 {
		t.Fatal("bad accounting")
	}
	hot := counts[0x10000>>9]
	if hot < len(recs)/20 {
		t.Errorf("hottest page only %d of %d refs; zipf not skewed", hot, len(recs))
	}
}

func TestPointerChaseDefeatsBlocks(t *testing.T) {
	c := synthBase()
	c.Records = 30000
	recs := PointerChase(c, 4096) // 64KB span, 16B apart
	small := runCache(t, recs, 8<<10)
	// Random-permutation chase over 4096 slots in an 8KB cache (512
	// lines): ~87% miss.
	if small.MissRate() < 0.7 {
		t.Errorf("pointer chase miss rate %.3f, want high", small.MissRate())
	}
}

func TestInterleaveStructure(t *testing.T) {
	a := Sequential(SynthConfig{Seed: 1, Records: 10, PID: 1, Base: 0x1000}, 4)
	b := Sequential(SynthConfig{Seed: 2, Records: 10, PID: 2, Base: 0x2000}, 4)
	mix := Interleave(4, a, b)
	var switches, refs int
	for _, r := range mix {
		if r.Kind() == trace.KindCtxSwitch {
			switches++
		} else {
			refs++
		}
	}
	if refs != 20 {
		t.Errorf("refs = %d, want 20", refs)
	}
	// 10 records per stream, quantum 4 -> 3 slices each, alternating:
	// 6 switch markers.
	if switches != 6 {
		t.Errorf("switches = %d, want 6", switches)
	}
	// All source records preserved in order per stream.
	var gotA []trace.Word
	for _, r := range mix {
		if r.Kind() != trace.KindCtxSwitch && r.PID() == 1 {
			gotA = append(gotA, r)
		}
	}
	if !reflect.DeepEqual(gotA, a) {
		t.Error("stream A reordered by interleave")
	}
}

func TestSyntheticDeterminism(t *testing.T) {
	a := Zipf(synthBase(), 256, 1.5)
	b := Zipf(synthBase(), 256, 1.5)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed produced different streams")
	}
}
