package sweep

import (
	"testing"

	"atum/internal/cache"
	"atum/internal/tlbsim"
)

// BenchmarkPerConfigSims times the simulators that run one configuration
// each, over the captured 13-process mix on one worker, fed 8,192-record
// chunks through a Pipeline. The tee lane is the streaming tee of the
// benchmark's smp2-stream workload: its four 2-way caches of 4-32 KB as
// UnifiedSims and experiment F5's two TBs. The fa lane is experiment
// A3's two fully associative caches of 256 and 1,024 blocks.
//
//	go test -run '^$' -bench PerConfigSims -cpu 1 ./internal/sweep/
func BenchmarkPerConfigSims(b *testing.B) {
	opts := cache.RunOptions{IncludePTE: true}
	tee := func(p *Pipeline) error {
		for _, c := range benchGrid() {
			if c.Assoc != 2 || c.SizeBytes < 4<<10 {
				continue
			}
			sim, err := cache.NewUnifiedSim(c, opts)
			if err != nil {
				return err
			}
			AddSim(p, c.Name(), sim)
		}
		for _, c := range []tlbsim.Config{
			{Entries: 256, Assoc: 2, SplitSystem: true, FlushOnSwitch: true, IncludeSystem: true},
			{Entries: 256, Assoc: 2, SplitSystem: true, PIDTags: true},
		} {
			sim, err := tlbsim.NewSim(c)
			if err != nil {
				return err
			}
			AddSim(p, c.Name(), sim)
		}
		return nil
	}
	fa := func(p *Pipeline) error {
		for _, blocks := range []uint32{256, 1024} {
			c := cache.Config{
				Label: "fa", SizeBytes: blocks * 16, BlockBytes: 16, Assoc: blocks,
				Replacement: cache.LRU, WriteAllocate: true, PIDTags: true,
			}
			sim, err := cache.NewUnifiedSim(c, opts)
			if err != nil {
				return err
			}
			AddSim(p, c.Name(), sim)
		}
		return nil
	}
	recs := captureMix13(b)
	for _, l := range []struct {
		name string
		add  func(*Pipeline) error
	}{{"tee", tee}, {"fa", fa}} {
		b.Run(l.name, func(b *testing.B) {
			for range b.N {
				p := NewPipeline(1)
				if err := l.add(p); err != nil {
					b.Fatal(err)
				}
				for off := 0; off < len(recs); off += 8192 {
					if err := p.Feed(recs[off:min(off+8192, len(recs))]); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(len(recs))*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrec/s")
		})
	}
}
