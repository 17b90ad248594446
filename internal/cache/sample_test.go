package cache

import (
	"reflect"
	"testing"

	"atum/internal/trace"
)

// sampleTrace is a deterministic synthetic mix with several processes,
// context switches, kernel/S0 references and PTE walks — wide enough
// address coverage that every residue class sees traffic for every K
// under test.
func sampleTrace(n int) []trace.Word {
	recs := make([]trace.Word, 0, n)
	seed := uint32(0x9E3779B9)
	rng := func() uint32 {
		seed = seed*1664525 + 1013904223
		return seed
	}
	pid := uint8(1)
	for len(recs) < n {
		if rng()%256 == 0 {
			pid = uint8(1 + rng()%4)
			recs = append(recs, trace.Pack(trace.KindCtxSwitch, 0, 0, pid, false, false, uint16(pid)))
			continue
		}
		r := rng()
		kind, addr, user := trace.KindIFetch, uint32(0), true
		switch r % 16 {
		case 0, 1:
			kind = trace.KindDRead
			addr = 0x8000_0000 | (r % 16384 * 4)
			user = false
		case 2:
			kind = trace.KindPTERead
			addr = 0x8000_8000 | (r % 2048 * 4)
			user = false
		case 3:
			kind = trace.KindPTEWrite
			addr = 0x8000_8000 | (r % 2048 * 4)
			user = false
		case 4, 5, 6, 7:
			kind = trace.KindDRead
			addr = uint32(pid)<<16 | (r % 8192 * 4)
		case 8, 9:
			kind = trace.KindDWrite
			addr = uint32(pid)<<16 | (r % 8192 * 4)
		default:
			kind = trace.KindIFetch
			addr = 0x0001_0000 | uint32(pid)<<12 | (r % 4096 * 4)
		}
		recs = append(recs, trace.Pack(kind, addr, 4, pid, user, false, 0))
	}
	return recs
}

// blockFilter keeps marker records plus the memory references whose
// block address falls in the (k, off) residue class — the reference
// definition the sampler must match.
func blockFilter(recs []trace.Word, k, off, blockBytes uint32) []trace.Word {
	var shift uint32
	for blockBytes>>shift != 1 {
		shift++
	}
	out := make([]trace.Word, 0, len(recs))
	for _, r := range recs {
		if r.Kind().IsMemRef() && (r.Addr()>>shift)%k != off {
			continue
		}
		out = append(out, r)
	}
	return out
}

// TestSampleSetsExactProperty is the set-sampling property: for every
// K and offset, a 1-in-K sampled simulation must EXACTLY equal the full
// (unsampled) simulation of the block-filtered trace — same stats to
// the last writeback, not an approximation. The sampler skips before
// any accounting, so both runs evolve through identical states.
func TestSampleSetsExactProperty(t *testing.T) {
	recs := sampleTrace(50_000)
	cfg := Config{
		Label: "sample", SizeBytes: 8 << 10, BlockBytes: 16, Assoc: 2,
		Replacement: LRU, WritePolicy: WriteBack,
		WriteAllocate: true, PIDTags: true,
	}
	for _, k := range []uint32{1, 4, 16} {
		offs := []uint32{0}
		if k > 1 {
			offs = []uint32{0, 1, k - 1}
		}
		for _, off := range offs {
			sampled, err := simulate(recs, cfg, RunOptions{
				IncludePTE: true, SampleSets: k, SampleOffset: off,
			})
			if err != nil {
				t.Fatal(err)
			}
			full, err := simulate(blockFilter(recs, k, off, cfg.BlockBytes), cfg,
				RunOptions{IncludePTE: true})
			if err != nil {
				t.Fatal(err)
			}
			if sampled.Stats != full.Stats {
				t.Errorf("K=%d off=%d: sampled %+v != filtered full %+v", k, off, sampled.Stats, full.Stats)
			}
			if k > 1 && sampled.Stats.Accesses == 0 {
				t.Errorf("K=%d off=%d: residue class saw no traffic (weak test trace)", k, off)
			}
		}
	}

	// The residue classes partition the trace: access counts across all
	// offsets sum to the full run's.
	fullAll, err := simulate(recs, cfg, RunOptions{IncludePTE: true})
	if err != nil {
		t.Fatal(err)
	}
	const k = 4
	var sum uint64
	for off := uint32(0); off < k; off++ {
		r, err := simulate(recs, cfg, RunOptions{IncludePTE: true, SampleSets: k, SampleOffset: off})
		if err != nil {
			t.Fatal(err)
		}
		sum += r.Stats.Accesses
	}
	if sum != fullAll.Stats.Accesses {
		t.Errorf("residue classes do not partition the trace: %d sampled accesses vs %d full", sum, fullAll.Stats.Accesses)
	}
}

// TestSampleSetsHierarchyProperty is the same property through the
// two-level hierarchy (sampling keys on the L1 block address).
func TestSampleSetsHierarchyProperty(t *testing.T) {
	recs := sampleTrace(50_000)
	cfg := HierarchyConfig{
		L1: Config{Label: "l1", SizeBytes: 4 << 10, BlockBytes: 16, Assoc: 2,
			Replacement: LRU, WritePolicy: WriteBack, WriteAllocate: true, PIDTags: true},
		L2: Config{Label: "l2", SizeBytes: 32 << 10, BlockBytes: 16, Assoc: 4,
			Replacement: LRU, WritePolicy: WriteBack, WriteAllocate: true, PIDTags: true},
	}
	for _, k := range []uint32{1, 4, 16} {
		sampled, err := simulateHierarchy(recs, cfg, RunOptions{
			IncludePTE: true, SampleSets: k, SampleOffset: k / 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		off := k / 2
		if k <= 1 {
			off = 0
		}
		filtered := recs
		if k > 1 {
			filtered = blockFilter(recs, k, off, cfg.L1.BlockBytes)
		}
		full, err := simulateHierarchy(filtered, cfg, RunOptions{IncludePTE: true})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sampled, full) {
			t.Errorf("K=%d: sampled hierarchy %+v != filtered full %+v", k, sampled, full)
		}
	}
}

// TestSampleOffsetValidation: an offset outside the residue range is a
// configuration error, caught at construction.
func TestSampleOffsetValidation(t *testing.T) {
	cfg := Config{SizeBytes: 4 << 10, BlockBytes: 16, Assoc: 2,
		Replacement: LRU, WritePolicy: WriteBack, WriteAllocate: true}
	if _, err := NewUnifiedSim(cfg, RunOptions{SampleSets: 4, SampleOffset: 4}); err == nil {
		t.Fatal("offset == K accepted")
	}
	if _, err := NewUnifiedSim(cfg, RunOptions{SampleSets: 4, SampleOffset: 3}); err != nil {
		t.Fatal(err)
	}
}
