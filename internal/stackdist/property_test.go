package stackdist_test

import (
	"fmt"
	"testing"

	"atum/internal/cache"
	"atum/internal/stackdist"
	"atum/internal/sweep"
	"atum/internal/trace"
	"atum/internal/workload"
)

// TestProfileMatchesSimulator is the property the Mattson reformulation
// rests on: for every reference stream, the one-pass stack-distance
// profile must predict exactly the miss count an explicit
// fully-associative LRU simulator observes at every capacity. It is
// checked across randomized seeded synthetic workloads — sequential,
// cyclic, random working-set, Zipf, pointer-chase and a multi-process
// interleave with context-switch markers — so the two implementations
// cross-validate each other on access patterns none was written against.
func TestProfileMatchesSimulator(t *testing.T) {
	const blockBytes = 16
	capacities := []int{4, 16, 64}

	type gen struct {
		name  string
		build func(seed int64) []trace.Word
	}
	gens := []gen{
		{"sequential", func(seed int64) []trace.Word {
			return workload.Sequential(workload.SynthConfig{Seed: seed, Records: 4000, PID: 1, Base: 0x1000, WriteFrac: 30}, 4)
		}},
		{"loop", func(seed int64) []trace.Word {
			return workload.Loop(workload.SynthConfig{Seed: seed, Records: 4000, PID: 1, Base: 0x1000, WriteFrac: 10}, 2048, 8)
		}},
		{"working-set", func(seed int64) []trace.Word {
			return workload.WorkingSet(workload.SynthConfig{Seed: seed, Records: 4000, PID: 1, Base: 0x1000, WriteFrac: 50}, 4096)
		}},
		{"zipf", func(seed int64) []trace.Word {
			return workload.Zipf(workload.SynthConfig{Seed: seed, Records: 4000, PID: 1, Base: 0x1000}, 64, 1.3)
		}},
		{"pointer-chase", func(seed int64) []trace.Word {
			return workload.PointerChase(workload.SynthConfig{Seed: seed, Records: 4000, PID: 1, Base: 0x1000}, 300)
		}},
		{"interleave", func(seed int64) []trace.Word {
			a := workload.WorkingSet(workload.SynthConfig{Seed: seed, Records: 2000, PID: 1, Base: 0x1000, WriteFrac: 20}, 2048)
			b := workload.Loop(workload.SynthConfig{Seed: seed + 100, Records: 2000, PID: 2, Base: 0x1000, WriteFrac: 20}, 1024, 4)
			c := workload.Zipf(workload.SynthConfig{Seed: seed + 200, Records: 2000, PID: 3, Base: 0x9000}, 32, 1.5)
			return workload.Interleave(97, a, b, c)
		}},
	}

	for _, g := range gens {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", g.name, seed), func(t *testing.T) {
				recs := trace.NewArena(g.build(seed))
				prof := stackdist.FromSource(recs, stackdist.Options{
					BlockBytes: blockBytes, PIDTag: true, IncludePTE: true,
				})
				var cfgs []cache.Config
				for _, capBlocks := range capacities {
					cfgs = append(cfgs, cache.Config{
						Label:       "fa",
						SizeBytes:   uint32(capBlocks) * blockBytes,
						BlockBytes:  blockBytes,
						Assoc:       uint32(capBlocks),
						Replacement: cache.LRU, WriteAllocate: true,
						PIDTags: true,
					})
				}
				results, err := sweep.Caches(recs, cfgs, cache.RunOptions{IncludePTE: true}, 1)
				if err != nil {
					t.Fatal(err)
				}
				for i, capBlocks := range capacities {
					res := results[i]
					if prof.Misses(capBlocks) != res.Stats.Misses {
						t.Errorf("capacity %d blocks: stackdist predicts %d misses, simulator saw %d",
							capBlocks, prof.Misses(capBlocks), res.Stats.Misses)
					}
					if prof.Total != res.Stats.Accesses {
						t.Errorf("capacity %d blocks: stackdist total %d != simulator accesses %d",
							capBlocks, prof.Total, res.Stats.Accesses)
					}
				}
			})
		}
	}
}
