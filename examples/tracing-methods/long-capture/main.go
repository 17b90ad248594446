// long-capture demonstrates the segmented capture pipeline: the paper's
// answer to a trace buffer that fills every few seconds. Instead of one
// oversized in-memory buffer, the kernel spill service bounds the
// reserved region to a small segment buffer and appends one segment to
// a file each time that buffer fills — the freeze/dump/resume
// protocol that turned a few megabytes of reserved memory into
// half-billion-reference traces.
//
// The example captures the same mix twice (segmented to disk, then
// monolithic in memory), replays the file through trace.OpenFile —
// which indexes the segments and decodes them in parallel — and checks
// that the stitched records are identical: segmenting is an I/O
// decision, invisible in the data.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"atum/internal/atum"
	"atum/internal/kernel"
	"atum/internal/trace"
	"atum/internal/workload"
)

func main() {
	const segmentBytes = 32 << 10 // 4096 records per segment

	path := filepath.Join(os.TempDir(), "long-capture.trc")
	defer os.Remove(path)

	// --- Segmented: stream to disk through the spill service. ---
	sys, err := workload.BootMix(kernel.DefaultConfig(), "sort", "sieve")
	if err != nil {
		log.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	svc, err := kernel.StartSpill(sys, f, kernel.SpillConfig{
		SegmentBytes: segmentBytes,
		Codec:        trace.CodecDelta,
		Meta:         "example=long-capture workloads=sort,sieve",
	})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := sys.Run(2_000_000_000); err != nil {
		log.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("segmented:  %d records in %d segments (%d dropped) -> %s\n",
		svc.SpilledRecords(), svc.Segments(), svc.Collector().Dropped, path)

	// --- Reference: the classic in-memory capture (atum.Run's own
	// sample stitcher, bounded by host memory rather than disk). ---
	ref, err := workload.BootMix(kernel.DefaultConfig(), "sort", "sieve")
	if err != nil {
		log.Fatal(err)
	}
	cap, err := atum.Run(ref.M, atum.DefaultOptions(), func() error {
		_, err := ref.Run(2_000_000_000)
		return err
	})
	if err != nil {
		log.Fatal(err)
	}
	mono := cap.All()
	fmt.Printf("in-memory:  %d records in %d sample(s) from the %d KB region\n",
		len(mono), len(cap.Samples), ref.M.Mem.ReservedSize()>>10)

	// --- Replay through the random-access fast path: OpenFile indexes
	// the segment headers without touching payloads, then decodes the
	// segments on a worker pool (0 = all cores). ---
	rd, err := trace.OpenFile(path)
	if err != nil {
		log.Fatal(err)
	}
	defer rd.Close()
	recs, err := rd.Records(0)
	if err != nil {
		log.Fatal(err)
	}
	for _, s := range rd.Segments()[:3] {
		fmt.Println("  ", s)
	}
	fmt.Printf("   ... %d more segments\n", len(rd.Segments())-3)

	if len(recs) != len(mono) {
		log.Fatalf("stitched %d records, in-memory %d", len(recs), len(mono))
	}
	for i := range recs {
		if recs[i] != mono[i] {
			log.Fatalf("record %d differs: %v vs %v", i, recs[i], mono[i])
		}
	}
	fmt.Println("stitched stream is record-identical to the in-memory capture")
}
