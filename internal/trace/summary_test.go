package trace_test

import (
	"math/rand"
	"testing"

	"atum/internal/atum"
	"atum/internal/kernel"
	"atum/internal/mem"
	"atum/internal/trace"
	"atum/internal/workload"
)

// mapDistinct is the distinct-PID and distinct-page count the summary
// made with two Go maps before it used a [256]bool and a stats.U64Set;
// it stays here as the oracle.
func mapDistinct(recs []trace.Word) (pids, pages int) {
	pidSet := map[uint8]bool{}
	pageSet := map[uint64]bool{}
	for _, r := range recs {
		if !r.Kind().IsMemRef() {
			continue
		}
		pidSet[r.PID()] = true
		key := uint64(r.Addr() >> mem.PageShift)
		if !r.Phys() && r.Addr()>>30 != 2 {
			key |= uint64(r.PID()) << 32
		}
		pageSet[key] = true
	}
	return len(pidSet), len(pageSet)
}

// TestSummarizeMatchesMapReference checks the summary's distinct counts
// against the map-based oracle on random records — every PID value,
// page zero, system and physical addresses, repeats — and on a real
// capture of a multiprogrammed mix.
func TestSummarizeMatchesMapReference(t *testing.T) {
	check := func(name string, recs []trace.Word) {
		t.Helper()
		s := trace.SummarizeSource(trace.NewArena(recs))
		pids, pages := mapDistinct(recs)
		if s.Total != uint64(len(recs)) || s.DistinctPIDs != pids || s.DistinctPages != pages {
			t.Errorf("%s: total %d, pids %d, pages %d; reference %d, %d, %d",
				name, s.Total, s.DistinctPIDs, s.DistinctPages, len(recs), pids, pages)
		}
	}

	r := rand.New(rand.NewSource(1))
	recs := []trace.Word{trace.Pack(trace.KindDRead, 0, 4, 0, false, false, 0)} // page 0 of PID 0: the zero key
	for i := 0; i < 50_000; i++ {
		k := trace.Kind(r.Intn(int(trace.NumKinds)))
		addr := uint32(r.Intn(4))<<30 | uint32(r.Intn(2048))<<mem.PageShift | uint32(r.Intn(mem.PageSize))
		pid, user, phys := uint8(r.Intn(256)), r.Intn(2) == 0, r.Intn(8) == 0
		var width uint8
		if k.IsMemRef() {
			width = 4
		}
		recs = append(recs, trace.Pack(k, addr, width, pid, user, phys, 0))
	}
	check("random", recs)

	sys, err := workload.BootMix(kernel.DefaultConfig(), "sieve", "qsort", "list")
	if err != nil {
		t.Fatal(err)
	}
	cap, err := atum.Run(sys.M, atum.DefaultOptions(), func() error {
		_, err := sys.Run(50_000_000)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	check("capture", cap.All())
}
