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

// TestSummarizeMatchesMapReference pins SummarizeSource's counting
// pass, every field, to the per-record model and its map-based distinct
// counts: on random records — every PID value, page zero, system and
// physical addresses, both modes — on random records that repeat recent
// page keys of their own or another kind, on page zero alone, and on
// captures of a multiprogrammed mix and of every named mix.
func TestSummarizeMatchesMapReference(t *testing.T) {
	check := func(name string, recs []trace.Word) {
		t.Helper()
		if got, want := trace.SummarizeSource(trace.NewArena(recs)), summaryModel(recs); got != want {
			t.Errorf("%s:\n got %+v\nwant %+v", name, got, want)
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

	recs = nil
	for range 100_000 {
		k := trace.Kind(r.Intn(int(trace.NumKinds)))
		addr := uint32(r.Intn(4))<<30 | uint32(r.Intn(8))<<mem.PageShift | uint32(r.Intn(mem.PageSize))
		recs = append(recs, trace.Pack(k, addr, 4, uint8(r.Intn(4)), r.Intn(2) == 0, r.Intn(8) == 0, 0))
		if n := r.Intn(4); n > 0 && len(recs) > n {
			recs = append(recs, recs[len(recs)-n])
		}
	}
	check("repeats", recs)
	check("empty", nil)
	check("zero key", []trace.Word{trace.Pack(trace.KindIFetch, 0, 4, 0, false, false, 0)})

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

	// The named mixes at the benchmark's 100k-cycle timer: at the
	// default, tracing dilates the 13-process mix into tens of millions
	// of records.
	cfg := kernel.DefaultConfig()
	cfg.ICRCycles = 100_000
	for name, mix := range workload.Mixes {
		sys, err := workload.BootMix(cfg, mix...)
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
		check(name, cap.All())
	}
}

// summaryModel is the per-record loop SummarizeSource ran before it
// counted by kind and mode, every field incremented as each record is
// read, with mapDistinct's distinct counts. It stays here as the
// oracle.
func summaryModel(recs []trace.Word) trace.Summary {
	var s trace.Summary
	for _, r := range recs {
		k := r.Kind()
		s.Total++
		s.ByKind[k]++
		switch k {
		case trace.KindCtxSwitch:
			s.CtxSwitches++
			continue
		case trace.KindException:
			s.Exceptions++
			continue
		}
		s.MemRefs++
		if r.User() {
			s.UserRefs++
		} else {
			s.SystemRefs++
		}
		switch k {
		case trace.KindIFetch:
			s.IFetches++
		case trace.KindDRead, trace.KindPTERead:
			s.Reads++
		case trace.KindDWrite, trace.KindPTEWrite:
			s.Writes++
		}
	}
	s.DistinctPIDs, s.DistinctPages = mapDistinct(recs)
	return s
}
