// atum-stats prints the summary statistics of a captured trace file:
// reference mix, user/system split, context switches, distinct pages —
// the per-trace columns of the paper's trace table.
//
// The trace is decoded once into a shared read-only arena
// (internal/trace.Arena) with segments fanned out over -decode-workers
// goroutines; independent report sections then run concurrently over it
// and print in a fixed order, so the output is identical for any worker
// count. -meta-only answers from the segment index alone, without
// decoding a single record payload.
//
// Usage:
//
//	atum-stats mix.trc
//	atum-stats -pid 2 -dump 20 mix.trc
//	atum-stats -meta-only long.trc
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"atum/internal/analysis"
	"atum/internal/cliutil"
	"atum/internal/obs"
	"atum/internal/par"
	"atum/internal/trace"
)

func main() {
	var (
		pid       = flag.Int("pid", -1, "restrict to one process id")
		user      = flag.Bool("user", false, "restrict to user-mode references")
		dump      = flag.Int("dump", 0, "also print the first N records")
		wset      = flag.Bool("wset", false, "compute working-set curve")
		byPID     = flag.Bool("by-pid", false, "per-process breakdown table")
		check     = flag.Bool("check", false, "lint the trace for structural violations")
		metaOnly  = flag.Bool("meta-only", false, "print capture metadata and the segment index without decoding records")
		telemetry = flag.Bool("telemetry", false, "print decode telemetry and compare throughput against the recorded baseline")
		benchFile = flag.String("bench", "BENCH_decode.json", "decode benchmark baseline for -telemetry")
		opts      cliutil.CommonOptions
	)
	opts.AddFlags(flag.CommandLine, cliutil.FlagWorkers|cliutil.FlagDecodeWorkers|cliutil.FlagRemote)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: atum-stats [flags] trace-file")
		os.Exit(2)
	}
	if err := opts.Validate(); err != nil {
		cliutil.Exit2("atum-stats", err)
	}
	workers, decodeW := &opts.Workers, &opts.DecodeWorkers

	if opts.Remote != "" {
		remoteStats(opts.Remote, flag.Arg(0), *check, *metaOnly)
		return
	}

	rd, err := trace.OpenFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	defer rd.Close()
	if rd.Meta() != "" {
		fmt.Println("capture:", rd.Meta())
	}
	var dropped, cycles uint64
	for _, s := range rd.Segments() {
		dropped += s.Dropped
		cycles += s.DilationCycles
	}
	fmt.Printf("segments: %d (%d records dropped at capture, %d dilation cycles)\n",
		len(rd.Segments()), dropped, cycles)
	if rd.SeqStamped() {
		printCPUBreakdown(rd.Segments())
	}
	if *metaOnly {
		// The segment index was built from headers alone; no payload has
		// been read — compressed or not — which is the point of this mode
		// on huge captures (headers carry both the stored and uncompressed
		// sizes, so the compression ratio is free).
		fmt.Printf("records: %d (per stream headers; payloads not decoded)\n", rd.NumRecords())
		var stored, raw uint64
		for _, s := range rd.Segments() {
			stored += s.PayloadBytes
			raw += s.RawBytes
			stamp := ""
			if rd.SeqStamped() {
				stamp = fmt.Sprintf(" [cpu %d seq %d]", s.CPU, s.Seq)
			}
			fmt.Printf("  segment %d:%s %d records, %d bytes stored (%s, %d uncompressed), %d dropped, %d dilation cycles\n",
				s.Index, stamp, s.Records, s.PayloadBytes, trace.EncodingName(s.Encoding), s.RawBytes, s.Dropped, s.DilationCycles)
		}
		// Every stream with segments gets the payload summary — a stream
		// of empty segments (stored == 0) used to drop the line entirely,
		// which read as truncated output; the ratio alone is undefined
		// then, so only it degrades.
		if len(rd.Segments()) > 0 {
			ratio := "n/a"
			if stored > 0 {
				ratio = fmt.Sprintf("%.2fx", float64(raw)/float64(stored))
			}
			fmt.Printf("payload: %d bytes stored for %d uncompressed (%s compression)\n",
				stored, raw, ratio)
		}
		return
	}
	decodeStart := time.Now()
	arena, err := rd.Arena(*decodeW)
	if err != nil {
		fatal(err)
	}
	decodeSecs := time.Since(decodeStart).Seconds()

	if *pid >= 0 {
		if *pid > 255 {
			fatal(fmt.Errorf("-pid %d out of range (trace PIDs are 8-bit)", *pid))
		}
		want := uint8(*pid)
		arena = arena.Filter(func(r trace.Record) bool { return r.PID == want })
	}
	if *user {
		arena = arena.FilterUser()
	}

	// Each enabled section renders independently from the shared arena;
	// results print in registration order regardless of worker count.
	var sections []func() string
	lintFailed := false
	if *check {
		sections = append(sections, func() string {
			// A merged SMP trace interleaves per-CPU streams at segment
			// granularity, so serial-machine invariants (PID continuity
			// across switch markers) only hold per CPU — lint each
			// core's stream, not the interleave.
			var violations []string
			if rd.SeqStamped() {
				maxCPU := 0
				for _, s := range rd.Segments() {
					if int(s.CPU) > maxCPU {
						maxCPU = int(s.CPU)
					}
				}
				for c := 0; c <= maxCPU; c++ {
					ca, err := rd.ArenaCPU(*decodeW, c)
					if err != nil {
						fatal(err)
					}
					for _, v := range trace.Lint(ca.Flatten()) {
						violations = append(violations, fmt.Sprintf("cpu %d: %s", c, v))
					}
				}
			} else {
				violations = trace.Lint(arena.Flatten())
			}
			// Container-framing checks ride along: a compressed segment
			// whose header lies about its uncompressed length decodes
			// cleanly, so only this pass can catch it.
			for _, f := range rd.LintContainer() {
				violations = append(violations, f.String())
			}
			if len(violations) == 0 {
				return "lint: trace is well-formed\n"
			}
			lintFailed = true
			var b strings.Builder
			for _, v := range violations {
				fmt.Fprintln(&b, "lint:", v)
			}
			return b.String()
		})
	}
	sections = append(sections, func() string {
		return trace.SummarizeSource(arena).String()
	})
	if *byPID {
		sections = append(sections, func() string {
			return analysis.PerPID(arena.Flatten()).String()
		})
	}
	if *wset {
		sections = append(sections, func() string {
			taus := []uint32{100, 1000, 10_000, 100_000}
			ws := analysis.WorkingSet(arena.Flatten(), taus)
			tb := &analysis.Table{Title: "working set", Headers: []string{"tau", "W(tau) pages"}}
			for i, tau := range taus {
				tb.AddRow(analysis.N(tau), analysis.F(ws[i], 1))
			}
			return tb.String()
		})
	}
	if *dump > 0 {
		sections = append(sections, func() string {
			var b strings.Builder
			recs := arena.Flatten()
			for i := 0; i < *dump && i < len(recs); i++ {
				fmt.Fprintln(&b, recs[i])
			}
			return b.String()
		})
	}

	rendered, err := par.Map(*workers, len(sections), func(i int) (string, error) {
		return sections[i](), nil
	})
	if err != nil {
		fatal(err)
	}
	for _, s := range rendered {
		fmt.Print(s)
	}
	if *telemetry {
		printTelemetry(os.Stdout, *benchFile, decodeSecs, rd.NumRecords())
	}
	if lintFailed {
		os.Exit(1)
	}
}

// printTelemetry reports this run's decode throughput next to the
// recorded benchmark baseline, then the decode-related lines of the live
// registry. The baseline is advisory: a missing or malformed bench file
// degrades to a note, never an error, since the trace was already
// decoded successfully.
func printTelemetry(w io.Writer, benchFile string, secs float64, records uint64) {
	rate := float64(records) / secs
	fmt.Fprintf(w, "telemetry: decoded %d records in %.4fs (%.1fM records/sec)\n",
		records, secs, rate/1e6)
	if base, err := loadBaseline(benchFile); err != nil {
		fmt.Fprintf(w, "telemetry: no baseline for comparison (%v)\n", err)
	} else {
		fmt.Fprintf(w, "telemetry: baseline parallel decode %.1fM records/sec -> this run at %.2fx baseline\n",
			base/1e6, rate/base)
	}
	for _, line := range strings.Split(obs.Default().String(), "\n") {
		if strings.HasPrefix(line, "atum_decode_") || strings.HasPrefix(line, "atum_par_") {
			fmt.Fprintln(w, "telemetry:", line)
		}
	}
}

// loadBaseline pulls parallel.records_per_sec out of the benchmark JSON
// written by the decode benchmark (-decode-json).
func loadBaseline(path string) (float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var doc struct {
		Parallel struct {
			RecordsPerSec float64 `json:"records_per_sec"`
		} `json:"parallel"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return 0, fmt.Errorf("%s: %w", path, err)
	}
	if doc.Parallel.RecordsPerSec <= 0 {
		return 0, fmt.Errorf("%s: no parallel.records_per_sec", path)
	}
	return doc.Parallel.RecordsPerSec, nil
}

// printCPUBreakdown aggregates an SMP stream's segment index by
// processor — pure header arithmetic, so it prints even under
// -meta-only without decoding a record.
func printCPUBreakdown(segs []trace.SegmentInfo) {
	maxCPU := 0
	for _, s := range segs {
		if int(s.CPU) > maxCPU {
			maxCPU = int(s.CPU)
		}
	}
	type tally struct{ segments, records uint64 }
	per := make([]tally, maxCPU+1)
	for _, s := range segs {
		per[s.CPU].segments++
		per[s.CPU].records += s.Records
	}
	for cpu, t := range per {
		fmt.Printf("  cpu %d: %d segment(s), %d records\n", cpu, t.segments, t.records)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "atum-stats:", err)
	os.Exit(1)
}
