// atum-capture boots the simulated machine with a workload mix, runs it
// to completion under the ATUM microcode patches, and writes the
// captured full-system address trace to a file.
//
// Usage:
//
//	atum-capture -o mix.trc -workloads sort,sieve,list,strops
//	atum-capture -o solo.trc -workloads matmul -codec raw -cost 72
//
// With -segment-bytes the capture streams to disk instead of buffering
// in memory: every time the segment buffer in the reserved region fills,
// the kernel spill service appends one segment to the output file, so the
// trace length is bounded by disk, not by the reserved region. If the
// sink stalls mid-capture the collector degrades to counted-drop mode
// and the stream stays valid up to the last complete segment.
//
//	atum-capture -o long.trc -segment-bytes 65536 -workloads sort,sieve
//
// Without -segment-bytes the capture is held in memory and written at
// the end as a one-segment stream carrying the collector's drop and
// dilation totals.
//
// Every segment header carries its capturing CPU and a sequence mark;
// a serial capture is CPU 0 with marks 1, 2, 3, ...
//
// -compress stores each spilled segment flate-compressed (the
// per-segment payload encoding) on top of whatever codec is selected;
// decode output is identical, only the file shrinks. It requires the
// spill path (-segment-bytes), whose segments are the unit of
// compression.
//
// -cpus boots an N-processor machine: the reserved region is divided
// into per-CPU slices, every core's microcode spills its own stream,
// all drawing marks from one machine-wide counter, and the output file
// is the sequence-ordered merge — replay it whole, or pick one core
// back out with cachesim -cpu.
//
//	atum-capture -o smp.trc -cpus 4 -workloads sort,sieve,hash,producer,consumer
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"atum/internal/atum"
	"atum/internal/cliutil"
	"atum/internal/kernel"
	"atum/internal/micro"
	"atum/internal/trace"
	"atum/internal/workload"
)

func main() {
	var (
		out      = flag.String("o", "atum.trc", "output trace file")
		loads    = flag.String("workloads", strings.Join(workload.StandardMix, ","), "comma-separated workload names")
		codec    = flag.String("codec", "delta", "trace codec: raw or delta")
		cost     = flag.Uint("cost", 56, "microcycles per trace record")
		quantum  = flag.Uint("quantum", 10000, "interval-timer period in microcycles")
		memMB    = flag.Uint("mem", 8, "physical memory in MB")
		resKB    = flag.Uint("reserved", 512, "reserved trace region in KB")
		budget   = flag.Uint64("budget", 2_000_000_000, "instruction budget")
		cpus     = flag.Int("cpus", 1, "simulated processors; >1 spills per-CPU streams and writes their sequence-ordered merge")
		compress = flag.Bool("compress", false, "flate-compress stored segments (requires -segment-bytes)")
		list     = flag.Bool("list", false, "list available workloads and exit")
		verbose  = flag.Bool("v", false, "print run statistics")
		common   cliutil.CommonOptions
	)
	common.AddFlags(flag.CommandLine, cliutil.FlagSegmentBytes|cliutil.FlagMetrics)
	flag.Parse()

	if err := common.Validate(); err != nil {
		cliutil.Exit2("atum-capture", err)
	}
	segBytes := common.SegBytes()
	metrics := &common.Metrics
	if *cpus < 1 {
		cliutil.Exit2("atum-capture", fmt.Errorf("-cpus %d: need at least one processor", *cpus))
	}
	if *compress && segBytes == 0 && *cpus == 1 {
		cliutil.Exit2("atum-capture", fmt.Errorf("-compress requires -segment-bytes (segments are the unit of compression)"))
	}

	if *list {
		for _, w := range workload.All {
			fmt.Printf("%-8s %s\n", w.Name, w.Desc)
		}
		return
	}

	var codecID uint16
	switch *codec {
	case "raw":
		codecID = trace.CodecRaw
	case "delta":
		codecID = trace.CodecDelta
	default:
		fatal(fmt.Errorf("unknown codec %q", *codec))
	}

	cfg := kernel.DefaultConfig()
	cfg.Machine.MemSize = uint32(*memMB) << 20
	cfg.Machine.ReservedSize = uint32(*resKB) << 10
	cfg.ICRCycles = uint32(*quantum)
	cfg.CPUs = *cpus

	names := strings.Split(*loads, ",")
	sys, err := workload.BootMix(cfg, names...)
	if err != nil {
		fatal(err)
	}
	if err := metrics.Start(os.Stderr); err != nil {
		fatal(err)
	}

	opts := atum.DefaultOptions()
	opts.CostPerRecord = uint32(*cost)

	runMix := func() error {
		reason, err := sys.Run(*budget)
		if err != nil {
			return err
		}
		if reason != micro.StopHalt {
			return fmt.Errorf("run stopped early: %v", reason)
		}
		return nil
	}
	// Configuration provenance; the spill path writes it at stream open
	// (before the run), so final instruction/cycle counts appear only in
	// captures held in memory.
	cfgMeta := fmt.Sprintf("workloads=%s mem=%dMB reserved=%dKB icr=%d cost=%d",
		*loads, *memMB, *resKB, *quantum, *cost)
	if *cpus > 1 {
		cfgMeta = fmt.Sprintf("%s cpus=%d", cfgMeta, *cpus)
	}

	if *cpus > 1 {
		enc := trace.SegEncRaw
		if *compress {
			enc = trace.SegEncFlate
		}
		captureSMP(sys, opts, kernel.SpillConfig{
			SegmentBytes: segBytes, Codec: codecID, Encoding: enc, Meta: cfgMeta,
		}, *out, runMix, *verbose)
		metrics.Finish(os.Stdout)
		return
	}

	if segBytes > 0 {
		enc := trace.SegEncRaw
		if *compress {
			enc = trace.SegEncFlate
		}
		captureSegmented(sys, opts, kernel.SpillConfig{
			SegmentBytes: segBytes, Codec: codecID, Encoding: enc, Meta: cfgMeta,
		}, *out, runMix, *verbose)
		metrics.Finish(os.Stdout)
		return
	}

	cap, err := atum.Run(sys.M, opts, runMix)
	if err != nil {
		fatal(err)
	}

	recs := cap.All()
	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	meta := fmt.Sprintf("%s instrs=%d cycles=%d", cfgMeta, sys.M.Instrs, sys.M.Cycles)
	sw, err := trace.NewSegmentWriter(f, codecID, meta)
	if err != nil {
		fatal(err)
	}
	stamp := trace.SegmentInfo{Dropped: cap.Collector.Dropped, DilationCycles: cap.Collector.DilationCycles}
	if _, err := sw.WriteSegment(recs, stamp); err != nil {
		fatal(err)
	}
	if err := sw.Close(); err != nil {
		fatal(err)
	}

	fmt.Printf("captured %d records in %d sample(s) -> %s\n",
		len(recs), len(cap.Samples), *out)
	if *verbose {
		fmt.Printf("instructions: %d  cycles: %d  console: %q\n",
			sys.M.Instrs, sys.M.Cycles, sys.Console())
		fmt.Print(trace.Summarize(recs))
	}
	metrics.Finish(os.Stdout)
}

// captureSegmented runs the mix under the kernel spill service,
// streaming segments to the output file as the reserved buffer fills.
func captureSegmented(sys *kernel.System, opts atum.Options, cfg kernel.SpillConfig, out string, runMix func() error, verbose bool) {
	f, err := os.Create(out)
	if err != nil {
		fatal(err)
	}
	defer f.Close()

	cfg.Options = opts
	svc, err := kernel.StartSpill(sys, f, cfg)
	if err != nil {
		fatal(err)
	}
	runErr := runMix()
	if err := svc.Close(); err != nil {
		// The stream up to the last complete segment is still valid;
		// report the degradation rather than deleting the file.
		fmt.Fprintf(os.Stderr, "atum-capture: sink failed mid-capture: %v (%d records lost)\n",
			err, svc.LostRecords())
	}
	if runErr != nil {
		fatal(runErr)
	}

	col := svc.Collector()
	fmt.Printf("captured %d records in %d segment(s) -> %s\n",
		svc.SpilledRecords(), svc.Segments(), out)
	if col.Dropped > 0 {
		fmt.Printf("dropped %d records (buffer full while sink stalled)\n", col.Dropped)
	}
	if verbose {
		fmt.Printf("instructions: %d  cycles: %d  console: %q\n",
			sys.M.Instrs, sys.M.Cycles, sys.Console())
	}
}

// captureSMP runs the mix with one spill service per core (each core's
// microcode streams into its own slice of the reserved region) and
// writes the sequence-ordered merge of the per-CPU streams to out.
func captureSMP(sys *kernel.System, opts atum.Options, cfg kernel.SpillConfig, out string, runMix func() error, verbose bool) {
	n := sys.NumCPUs()
	bufs := make([]*bytes.Buffer, n)
	sinks := make([]io.Writer, n)
	for i := range bufs {
		bufs[i] = new(bytes.Buffer)
		sinks[i] = bufs[i]
	}
	cfg.Options = opts
	svcs, err := kernel.StartSpillCPUs(sys, sinks, cfg)
	if err != nil {
		fatal(err)
	}
	runErr := runMix()
	var total uint64
	for c, svc := range svcs {
		if err := svc.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "atum-capture: CPU %d sink failed mid-capture: %v (%d records lost)\n",
				c, err, svc.LostRecords())
		}
		total += svc.SpilledRecords()
	}
	if runErr != nil {
		fatal(runErr)
	}

	files := make([]*trace.File, n)
	for c, b := range bufs {
		files[c], err = trace.OpenReaderAt(bytes.NewReader(b.Bytes()), int64(b.Len()))
		if err != nil {
			fatal(fmt.Errorf("CPU %d stream: %w", c, err))
		}
	}
	f, err := os.Create(out)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := trace.MergeCPUs(f, cfg.Meta+" merged", files...); err != nil {
		fatal(err)
	}

	fmt.Printf("captured %d records on %d CPUs -> %s (merged)\n", total, n, out)
	for c, svc := range svcs {
		fmt.Printf("  cpu %d: %d records in %d segment(s)\n", c, svc.SpilledRecords(), svc.Segments())
		if d := svc.Collector().Dropped; d > 0 {
			fmt.Printf("  cpu %d: dropped %d records (buffer full while sink stalled)\n", c, d)
		}
	}
	if verbose {
		fmt.Printf("console: %q\n", sys.Console())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "atum-capture:", err)
	os.Exit(1)
}
