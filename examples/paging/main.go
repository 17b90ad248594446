// paging runs a memory-hungry workload on a deliberately small machine
// so the kernel's page stealer and swap device engage, then shows what
// the ATUM trace reveals: the pager's demand-zero loops, swap traffic,
// and an overwhelming system-reference share — OS behaviour that is
// invisible to every user-level tracing technique.
package main

import (
	"fmt"
	"log"

	"atum/internal/analysis"
	"atum/internal/atum"
	"atum/internal/kernel"
	"atum/internal/trace"
	"atum/internal/workload"
)

func main() {
	cfg := kernel.DefaultConfig()
	cfg.Machine.MemSize = 1 << 20       // 1 MB machine...
	cfg.Machine.ReservedSize = 64 << 10 // ...with a 64 KB trace buffer
	cfg.Machine.TBEntries = 64
	cfg.FreeFrameCap = 60 // offer only 60 frames: the 100-page workload must page

	sys, err := workload.BootMix(cfg, "pagestress")
	if err != nil {
		log.Fatal(err)
	}
	free, err := sys.FreeFrames()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("machine: %d free frames offered; the workload's working set is 100 pages\n", free)

	capture, err := atum.Run(sys.M, atum.DefaultOptions(), func() error {
		_, err := sys.Run(500_000_000)
		return err
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("workload says: %q (data survived swap-out and swap-in)\n\n", sys.Console())
	reads, writes := sys.SwapActivity()
	fmt.Printf("swap traffic: %d page writes out, %d page reads back\n", writes, reads)

	recs := capture.All()
	s := trace.Summarize(recs)
	fmt.Printf("trace: %d records, %.1f%% made by the operating system\n\n",
		s.Total, s.PercentSystem())
	fmt.Print(analysis.PerPID(recs))

	fmt.Println("\nWhat the pager looks like in the trace (a fault's worth of records):")
	shown := 0
	for i, r := range recs {
		if r.Kind() == trace.KindException && r.Extra() == 0x24 { // TNV
			for _, rr := range recs[i : i+12] {
				fmt.Println("  ", rr)
			}
			shown++
			if shown == 1 {
				break
			}
		}
	}
	fmt.Println("\nEvery one of those kernel references — the page-table walk, the")
	fmt.Println("demand-zero loop, the PTE update — is real executed code, captured")
	fmt.Println("because the tracing lives in the microcode underneath everything.")
}
