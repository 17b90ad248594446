package cache

import (
	"math/rand"
	"testing"

	"atum/internal/trace"
)

func benchTrace(n int) []trace.Word {
	r := rand.New(rand.NewSource(1))
	recs := make([]trace.Word, n)
	for i := range recs {
		var addr uint32
		if r.Intn(4) > 0 {
			addr = uint32(r.Intn(4096)) * 4 // hot region
		} else {
			addr = uint32(r.Intn(1<<22)) &^ 3
		}
		kind := trace.KindDRead
		if r.Intn(3) == 0 {
			kind = trace.KindDWrite
		}
		recs[i] = trace.Pack(kind, addr, 4, 1, true, false, 0)
	}
	return recs
}

// BenchmarkAccess measures the per-reference simulation cost.
func BenchmarkAccess(b *testing.B) {
	c, err := New(base())
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(2))
	addrs := make([]uint32, 4096)
	for i := range addrs {
		addrs[i] = uint32(r.Intn(1 << 20))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(addrs[i&4095], i&7 == 0, 1)
	}
}

// BenchmarkUnifiedSim measures whole-trace simulation throughput.
func BenchmarkUnifiedSim(b *testing.B) {
	recs := benchTrace(100_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := simulate(recs, base(), RunOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(recs))*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrefs/s")
}
