// multiprogramming studies context-switch effects: the same four-process
// mix is captured at several scheduling quanta, and each trace is run
// through a cache that flushes on context switch (mid-80s hardware
// without PID tags). Shorter quanta mean less time to re-warm the cache
// after each switch.
package main

import (
	"fmt"
	"log"

	"atum/internal/analysis"
	"atum/internal/atum"
	"atum/internal/cache"
	"atum/internal/kernel"
	"atum/internal/sweep"
	"atum/internal/trace"
	"atum/internal/workload"
)

func capture(icr uint32) ([]trace.Record, error) {
	cfg := kernel.DefaultConfig()
	cfg.ICRCycles = icr
	cfg.QuantumTicks = 1
	sys, err := workload.BootMix(cfg, "sieve", "hash", "strops")
	if err != nil {
		return nil, err
	}
	cap, err := atum.Run(sys.M, atum.DefaultOptions(), func() error {
		_, err := sys.Run(2_000_000_000)
		return err
	})
	if err != nil {
		return nil, err
	}
	return cap.All(), nil
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
		Headers: []string{"quantum (cycles)", "switches", "mean run (refs)",
			"miss rate (flush)", "miss rate (PID tags)"},
	}
	for _, icr := range []uint32{10_000, 40_000, 160_000, 640_000} {
		recs, err := capture(icr)
		if err != nil {
			log.Fatal(err)
		}
		s := trace.Summarize(recs)
		runs := analysis.RunLengths(recs)
		res, err := sweep.Caches(trace.Records(recs), []cache.Config{ccfg, tagged}, cache.RunOptions{IncludePTE: true}, 0)
		if err != nil {
			log.Fatal(err)
		}
		tb.AddRow(analysis.N(icr), analysis.N(s.CtxSwitches),
			analysis.F(analysis.MeanU64(runs), 0),
			analysis.Pct(res[0].Stats.MissRate()),
			analysis.Pct(res[1].Stats.MissRate()))
	}
	fmt.Print(tb)
	fmt.Println("\nFlushing caches pay heavily at short quanta; PID-tagged caches")
	fmt.Println("retain each process's lines across switches. Multiprogramming")
	fmt.Println("effects like these are only measurable from full-system traces.")
}
