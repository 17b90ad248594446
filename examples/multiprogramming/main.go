// multiprogramming studies context-switch effects: the same three-process
// mix is captured at several scheduling quanta, and each trace is run
// through a cache that flushes on context switch (mid-80s hardware
// without PID tags). Shorter quanta mean less time to re-warm the cache
// after each switch.
//
// Each capture runs at most budget instructions, which bounds the
// records it keeps. At the shortest quantum the mix does not halt within
// it: tracing dilates simulated time, so the interval timer fires ever
// more often per instruction and the kernel spends its time in the clock
// interrupt. The "halted" column says which captures ran the mix to its
// end.
package main

import (
	"fmt"
	"log"

	"atum/internal/analysis"
	"atum/internal/atum"
	"atum/internal/cache"
	"atum/internal/kernel"
	"atum/internal/micro"
	"atum/internal/sweep"
	"atum/internal/trace"
	"atum/internal/workload"
)

// budget is the instruction budget of each traced run.
const budget = 5_000_000

// capture traces the mix at one timer period and reports whether it
// halted within the budget.
func capture(icr uint32) ([]trace.Word, bool, error) {
	cfg := kernel.DefaultConfig()
	cfg.ICRCycles = icr
	cfg.QuantumTicks = 1
	sys, err := workload.BootMix(cfg, "sieve", "hash", "strops")
	if err != nil {
		return nil, false, err
	}
	var reason micro.StopReason
	cap, err := atum.Run(sys.M, atum.DefaultOptions(), func() (err error) {
		reason, err = sys.Run(budget)
		return err
	})
	if err != nil {
		return nil, false, err
	}
	return cap.All(), reason == micro.StopHalt, nil
}

func main() {
	ccfg := cache.Config{
		Label: "mp", SizeBytes: 64 << 10, BlockBytes: 16, Assoc: 1,
		Replacement: cache.LRU, WritePolicy: cache.WriteBack,
		WriteAllocate: true, FlushOnSwitch: true,
	}
	tagged := ccfg
	tagged.FlushOnSwitch = false
	tagged.PIDTags = true

	tb := &analysis.Table{
		Title: "Context-switch cost in a 64KB cache (three-process mix)",
		Headers: []string{"quantum (cycles)", "halted", "switches", "mean run (refs)",
			"miss rate (flush)", "miss rate (PID tags)"},
	}
	for _, icr := range []uint32{10_000, 40_000, 160_000, 640_000} {
		recs, halted, err := capture(icr)
		if err != nil {
			log.Fatal(err)
		}
		end := "yes"
		if !halted {
			end = "no (budget)"
		}
		s := trace.Summarize(recs)
		runs := analysis.RunLengths(recs)
		res, err := sweep.Caches(trace.NewArena(recs), []cache.Config{ccfg, tagged}, cache.RunOptions{IncludePTE: true}, 0)
		if err != nil {
			log.Fatal(err)
		}
		tb.AddRow(analysis.N(icr), end, analysis.N(s.CtxSwitches),
			analysis.F(analysis.MeanU64(runs), 0),
			analysis.Pct(res[0].Stats.MissRate()),
			analysis.Pct(res[1].Stats.MissRate()))
	}
	fmt.Print(tb)
	fmt.Println("\nFlushing caches pay heavily at short quanta; PID-tagged caches")
	fmt.Println("retain each process's lines across switches. Multiprogramming")
	fmt.Println("effects like these are only measurable from full-system traces.")
}
