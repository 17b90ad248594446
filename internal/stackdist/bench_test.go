package stackdist

import (
	"math/rand"
	"testing"

	"atum/internal/trace"
)

var benchSink uint64

// BenchmarkStackdist times the engine in both regimes: streams that
// reuse mostly within the top (a hot synthetic stream and the captured
// 13-process mix) and 2M-reference streams whose working sets sit far
// below it (uniform over 1M blocks, all first references, cyclic over
// 500k blocks), plus a cyclic stream over 257 blocks, where every reuse
// just misses the top.
func BenchmarkStackdist(b *testing.B) {
	lane := func(name string, build func() []uint64) {
		b.Run(name, func(b *testing.B) {
			stream := build()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink += analyze(stream).Cold
			}
			b.ReportMetric(float64(len(stream))*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrefs/s")
		})
	}
	const n = 2_000_000
	lane("hot", func() []uint64 {
		r := rand.New(rand.NewSource(3))
		out := make([]uint64, 200_000)
		for i := range out {
			if r.Intn(4) > 0 {
				out[i] = uint64(r.Intn(256))
			} else {
				out[i] = uint64(r.Intn(1 << 16))
			}
		}
		return out
	})
	b.Run("mix13", func(b *testing.B) {
		recs := trace.NewArena(captureMix13(b))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchSink += FromSource(recs, mixOpts).Cold
		}
		b.ReportMetric(float64(recs.NumRecords())*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrec/s")
	})
	lane("uniform-1M", func() []uint64 {
		r := rand.New(rand.NewSource(3))
		out := make([]uint64, n)
		for i := range out {
			out[i] = uint64(r.Intn(1 << 20))
		}
		return out
	})
	cyclic := func(blocks int) func() []uint64 {
		return func() []uint64 {
			out := make([]uint64, n)
			for i := range out {
				out[i] = uint64(i % blocks)
			}
			return out
		}
	}
	lane("cold", cyclic(n))
	lane("cyclic-500k", cyclic(500_000))
	lane("cyclic-257", cyclic(257))
}
