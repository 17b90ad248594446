// cachesim drives a captured trace file through cache and TLB
// configurations.
//
// Usage:
//
//	cachesim -size 64K -block 16 -assoc 2 mix.trc
//	cachesim -sweep sizes -sizes 1K,4K,16K,64K mix.trc
//	cachesim -tlb -entries 256 mix.trc
//	cachesim -user-only -size 64K mix.trc      # the pre-ATUM view
//	cachesim -stream -sweep sizes mix.trc      # one pass, bounded memory
//	cachesim -stream - < mix.trc               # stream from stdin
//	cachesim -sample-sets 16 -sweep sizes mix.trc  # 1-in-16 set preview
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"atum/internal/analysis"
	"atum/internal/cache"
	"atum/internal/cliutil"
	"atum/internal/stackdist"
	"atum/internal/sweep"
	"atum/internal/tlbsim"
	"atum/internal/trace"
)

func main() {
	var (
		size     = flag.String("size", "64K", "cache size")
		block    = flag.Uint("block", 16, "block size in bytes")
		assoc    = flag.Uint("assoc", 1, "ways of associativity")
		repl     = flag.String("repl", "lru", "replacement: lru, fifo, random")
		flush    = flag.Bool("flush", false, "flush on context switch (no PID tags)")
		userOnly = flag.Bool("user-only", false, "simulate the user-only subset of the trace")
		pte      = flag.Bool("pte", true, "include page-table references")
		sweepArg = flag.String("sweep", "", "sweep: sizes, blocks or assoc")
		sizesArg = flag.String("sizes", "1K,2K,4K,8K,16K,32K,64K,128K,256K", "sweep sizes")
		tlb      = flag.Bool("tlb", false, "simulate a translation buffer instead")
		entries  = flag.Uint("entries", 256, "TLB entries")
		mattson  = flag.Bool("mattson", false, "one-pass stack-distance analysis: print the fully-associative LRU miss curve")
		l2       = flag.String("l2", "", "two-level mode: unified L2 of this size behind split L1s of -size")
		cpu      = flag.Int("cpu", -1, "replay only this CPU's segments of a sequence-stamped SMP trace (-1: whole machine)")
		stream   = flag.Bool("stream", false, "stream the trace through the pipeline: one pass, memory bounded by one segment; trace-file - reads stdin")
		common   cliutil.CommonOptions
	)
	common.AddFlags(flag.CommandLine,
		cliutil.FlagWorkers|cliutil.FlagDecodeWorkers|cliutil.FlagSampleSets|cliutil.FlagMetrics|cliutil.FlagRemote)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: cachesim [flags] trace-file")
		os.Exit(2)
	}
	if err := common.Validate(); err != nil {
		cliutil.Exit2("cachesim", err)
	}
	workers, decodeW, sampleK := &common.Workers, &common.DecodeWorkers, &common.SampleSets
	metrics := &common.Metrics
	if err := metrics.Start(os.Stderr); err != nil {
		fatal(err)
	}
	defer metrics.Finish(os.Stdout)

	if *cpu >= 0 && *stream {
		fatal(fmt.Errorf("-cpu needs the decoded trace, not -stream: the streaming pipeline carries no per-segment CPU attribution"))
	}
	sdOpts := stackdist.Options{BlockBytes: uint32(*block), PIDTag: !*flush, IncludePTE: *pte}
	if *mattson {
		if err := sdOpts.Validate(); err != nil {
			cliutil.Exit2("cachesim", err)
		}
	}
	if common.Remote != "" {
		remoteRun(common.Remote, flag.Arg(0), remoteFlags{
			size: *size, block: uint32(*block), assoc: uint32(*assoc), repl: *repl, flush: *flush,
			userOnly: *userOnly, pte: *pte, sweepArg: *sweepArg, sizesArg: *sizesArg,
			tlb: *tlb, entries: uint32(*entries), mattson: *mattson, l2: *l2,
			cpu: *cpu, workers: *workers, decodeWorkers: *decodeW, sampleSets: uint32(*sampleK),
		})
		return
	}

	// The simulators are registered once; -stream chooses only how the
	// trace reaches them.
	pipe := sweep.NewPipeline(*workers)
	if *userOnly {
		pipe.SetFilter(trace.UserRecord)
	}
	feed := func() { feedTrace(pipe, flag.Arg(0), *stream, *decodeW, *cpu) }

	if *mattson {
		collect := sweep.AddSim(pipe, "mattson", stackdist.NewStream(sdOpts))
		feed()
		printMattson(must(collect()), uint32(*block))
		return
	}

	if *tlb {
		cfg := tlbsim.Config{
			Entries: uint32(*entries), Assoc: 2, SplitSystem: true,
			PIDTags: !*flush, FlushOnSwitch: *flush, IncludeSystem: true,
		}
		sim := must(tlbsim.NewSim(cfg))
		collect := sweep.AddSim(pipe, cfg.Name(), sim)
		feed()
		printTB(cfg, must(collect()))
		return
	}

	cfg := baseCacheConfig(*size, uint32(*block), uint32(*assoc), *repl, *flush)
	opts := cache.RunOptions{IncludePTE: *pte, SampleSets: uint32(*sampleK)}

	if *l2 != "" {
		l2cfg := cfg
		l2cfg.SizeBytes = parseSize(*l2)
		l2cfg.Assoc = 4
		hcfg := cache.HierarchyConfig{L1: cfg, L2: l2cfg}
		sim := must(cache.NewHierarchySim(hcfg, opts))
		collect := sweep.AddSim(pipe, hcfg.Name(), sim)
		feed()
		printHierarchy(must(collect()))
		return
	}

	collect := must(sweep.AddSims(pipe, sweepConfigs(cfg, *sweepArg, *sizesArg),
		func(cfg cache.Config) (sweep.Sim[cache.Result], error) { return cache.NewUnifiedSim(cfg, opts) }))
	feed()
	report(must(collect()))
}

// feedTrace drives the pipeline from the trace at path. With stream it
// scans the file ("-" reads stdin) one segment at a time, so memory stays
// bounded by one segment; otherwise it decodes the trace (or one CPU's
// segments of it) into an arena and replays that. Errors are sticky in
// the pipeline and surface from the collectors.
func feedTrace(p *sweep.Pipeline, path string, stream bool, decodeWorkers, cpu int) {
	if stream {
		var in io.Reader = os.Stdin
		if path != "-" {
			f, err := os.Open(path)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			in = f
		}
		p.FeedStream(in)
		return
	}
	rd, err := trace.OpenFile(path)
	if err != nil {
		fatal(err)
	}
	defer rd.Close()
	src, err := rd.ArenaCPU(decodeWorkers, cpu)
	if err != nil {
		fatal(err)
	}
	p.FeedSource(src)
}

// must returns v, or exits on err.
func must[T any](v T, err error) T {
	if err != nil {
		fatal(err)
	}
	return v
}

// baseCacheConfig assembles the single-level config the flags describe;
// both the local and -remote paths run exactly this config.
func baseCacheConfig(size string, block, assoc uint32, repl string, flush bool) cache.Config {
	cfg := cache.Config{
		SizeBytes:     parseSize(size),
		BlockBytes:    block,
		Assoc:         assoc,
		WritePolicy:   cache.WriteBack,
		WriteAllocate: true,
		PIDTags:       !flush,
		FlushOnSwitch: flush,
	}
	switch repl {
	case "lru":
		cfg.Replacement = cache.LRU
	case "fifo":
		cfg.Replacement = cache.FIFO
	case "random":
		cfg.Replacement = cache.Random
	default:
		fatal(fmt.Errorf("unknown replacement %q", repl))
	}
	return cfg
}

// sweepConfigs expands -sweep into the config list.
func sweepConfigs(cfg cache.Config, sweepArg, sizesArg string) []cache.Config {
	switch sweepArg {
	case "":
		return []cache.Config{cfg}
	case "sizes":
		var sizes []uint32
		for _, s := range strings.Split(sizesArg, ",") {
			sizes = append(sizes, parseSize(s))
		}
		return cache.SizeConfigs(cfg, sizes)
	case "blocks":
		return cache.BlockConfigs(cfg, []uint32{4, 8, 16, 32, 64, 128})
	case "assoc":
		return cache.AssocConfigs(cfg, []uint32{1, 2, 4, 8})
	default:
		fatal(fmt.Errorf("unknown sweep %q", sweepArg))
		return nil
	}
}

// printMattson renders the stack-distance profile; local and -remote
// runs print through this one function, so their bytes match.
func printMattson(prof *stackdist.Profile, block uint32) {
	tb := &analysis.Table{
		Title:   "fully-associative LRU miss-rate curve (one pass)",
		Headers: []string{"capacity", "blocks", "miss rate"},
	}
	for _, blocks := range []int{16, 64, 256, 1024, 4096, 16384} {
		bytes := uint32(blocks) * block
		tb.AddRow(fmt.Sprintf("%dKB", bytes>>10), analysis.N(blocks),
			analysis.Pct(prof.MissRate(blocks)))
	}
	fmt.Print(tb)
	fmt.Printf("cold misses: %d of %d refs; max stack depth %d\n",
		prof.Cold, prof.Total, prof.MaxDepth())
}

// printTB renders one translation-buffer result.
func printTB(cfg tlbsim.Config, st tlbsim.Stats) {
	fmt.Printf("TB %s: accesses=%d misses=%d miss-rate=%s flushes=%d\n",
		cfg.Name(), st.Accesses, st.Misses, analysis.Pct(st.MissRate()), st.Flushes)
}

// printHierarchy renders one two-level result.
func printHierarchy(res cache.HierarchyResult) {
	fmt.Printf("L1I: %s miss  L1D: %s miss  global L2: %s  memory accesses: %d\n",
		analysis.Pct(res.L1I.MissRate()), analysis.Pct(res.L1D.MissRate()),
		analysis.Pct(res.GlobalL2MissRate), res.MemoryAccesses)
}

func report(results []cache.Result) {
	tb := &analysis.Table{
		Headers: []string{"config", "accesses", "misses", "miss rate", "cold", "writebacks"},
	}
	for _, r := range results {
		tb.AddRow(r.Config.Name(), analysis.N(r.Stats.Accesses), analysis.N(r.Stats.Misses),
			analysis.Pct(r.Stats.MissRate()), analysis.N(r.Stats.ColdMisses), analysis.N(r.Stats.Writebacks))
	}
	fmt.Print(tb)
}

func parseSize(s string) uint32 {
	s = strings.TrimSpace(strings.ToUpper(s))
	mult := uint32(1)
	switch {
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, s[:len(s)-1]
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, s[:len(s)-1]
	}
	v, err := strconv.ParseUint(s, 10, 32)
	if err != nil {
		fatal(fmt.Errorf("bad size %q", s))
	}
	return uint32(v) * mult
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cachesim:", err)
	os.Exit(1)
}
