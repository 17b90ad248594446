// Command perfbench is the repository's end-to-end benchmark. It times the
// full ATUM path (boot, traced run, spill, decode, sweep) on three pinned
// workloads, checks every op's outputs, and prints one JSON result line.
// See README.md for the workloads and metrics.
//
//	bash perfbench/run.sh --workload capture-mix13 --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh compare <parent-results-dir> <change-results-dir>
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"
)

// setupReps is how many times a run sets up; setup_s is their median.
// sweep-mix13 takes its sim_kinstr_per_ref from these set-ups, so there
// are enough of them for a steady median over the quiet half.
const setupReps = 21

// minOps is the fewest ops a timed run makes, so op_tail_ref always has
// ten ops beyond it.
const minOps = 11

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	ops      int    // exact op count (tests); 0 times the run instead
	out      string // directory for the result record and spans
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runRecord is a result with its provenance: what the comparison report
// reads back.
type runRecord struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Trace      bool               `json:"trace"`
	Command    string             `json:"command"`
	Cores      int                `json:"cores"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	GoVersion  string             `json:"go_version"`
	Commit     string             `json:"commit"`
	Source     string             `json:"source_sha256"`
	Time       string             `json:"time"`
	Mix        []string           `json:"mix"`
	TailPct    float64            `json:"tail_percentile,omitempty"`
	OpWalls    []float64          `json:"op_wall_s"`
	RefWalls   []float64          `json:"ref_wall_s"` // before op 0, between ops, after the last
	Sim        simCounts          `json:"sim"`
	SelfTime   map[string]float64 `json:"self_time_s,omitempty"`
	Errors     []string           `json:"errors,omitempty"`
	Result     result             `json:"result"`
}

func main() {
	// One thread: the reference computation runs on one core, so the
	// ops it scales must too, garbage collection included.
	runtime.GOMAXPROCS(1)
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	var o options
	var traceFlag int
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fl.Int64Var(&o.seed, "seed", 1, "workload seed; it permutes the mix's spawn order")
	fl.Float64Var(&o.seconds, "seconds", 20, "seconds of ops to measure")
	fl.IntVar(&traceFlag, "trace", 0, "1 records layer spans and prints the per-layer metrics")
	if err := fl.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	o.trace = traceFlag == 1
	o.out = filepath.Join(envOr("CARGO_TARGET_DIR", ".bench_build"), "perfbench-results")
	if err := run(o, os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// run sets up, measures and reports one workload. hook, when set, adjusts
// the bench before set-up (tests use it to corrupt streams).
func run(o options, stdout io.Writer, hook func(*bench)) error {
	w, ok := findWorkload(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	b := newBench(o.seed, o.out)
	if hook != nil {
		hook(b)
	}
	defer func() {
		if b.input != "" {
			os.Remove(b.input)
		}
	}()

	// Every set-up and every op is bracketed by runs of the reference
	// computation (calib.go): refs[i] is timed just before op i and
	// refs[i+1] just after it.
	var setups []float64
	setupRefs := []float64{timeRef()}
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if err := w.setup(b); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		setupRefs = append(setupRefs, timeRef())
	}

	var ops []*opStats
	var errs []string
	var first *simCounts // the first passing op's simulated counts
	var ms0, ms1 runtime.MemStats
	runtime.GC() // start the ops without set-up garbage
	runtime.ReadMemStats(&ms0)
	var refs []float64
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for n := 0; ; n++ {
		refs = append(refs, timeRef())
		if o.ops > 0 && n >= o.ops || o.ops == 0 && n >= minOps && time.Now().After(deadline) {
			break
		}
		// The span run alternates ops with and without spans, so the
		// overhead of recording them is measured inside one run.
		b.rec.reset(n, o.trace && n%2 == 0)
		st := &opStats{}
		gc0 := gcCycles()
		t0 := time.Now()
		err := w.op(b, st)
		st.wall = time.Since(t0)
		st.gcCycles = gcCycles() - gc0
		st.spans = b.rec.spans
		if err == nil && first != nil && st.sim != *first {
			err = fmt.Errorf("simulated counts %+v differ from the first op's %+v", st.sim, *first)
		}
		if err != nil {
			errs = append(errs, fmt.Sprintf("op %d: %v", n, err))
		} else if first == nil {
			first = &st.sim
		}
		ops = append(ops, st)
	}
	refs = append(refs, timeRef())
	runtime.ReadMemStats(&ms1)
	for i, op := range ops {
		op.ref = (refs[i] + refs[i+1]) / 2
	}

	rec := runRecord{
		Workload: o.workload, Seed: o.seed, Trace: o.trace,
		Command:    commandLine(),
		Cores:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		Source:     sourceHash(),
		Time:       time.Now().UTC().Format(time.RFC3339),
		Mix:        b.mix,
		Errors:     errs,
	}
	if first != nil {
		rec.Sim = *first
	}
	for _, op := range ops {
		rec.OpWalls = append(rec.OpWalls, op.wall.Seconds())
	}
	rec.RefWalls = refs
	rec.Result = result{Correct: len(errs) == 0, Attempted: len(ops), Failed: len(errs)}
	if o.trace {
		rec.Result.Metrics, rec.SelfTime = layerMetrics(ops, b.rec.heapPeak)
	} else {
		rec.Result.Metrics, rec.TailPct = endToEnd(ops, len(errs), setups, setupRefs, b, float64(ms1.TotalAlloc-ms0.TotalAlloc))
	}
	if err := writeRecord(o, rec, ops); err != nil {
		return err
	}
	printReport(stdout, rec)
	line, err := json.Marshal(rec.Result)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return nil
}

// endToEnd computes the metrics a user of the system sees, from the plain
// (span-free) run. Op times are in reference units (calib.go): each op's
// wall time over the reference time measured beside it. The medians are
// taken over the quiet ops; the tail is taken over all of them.
func endToEnd(ops []*opStats, failed int, setups, setupRefs []float64, b *bench, allocBytes float64) (map[string]metric, float64) {
	var times, rates, refs, sims, simRefs, bpr []float64
	for _, op := range ops {
		t := ratio(op.wall.Seconds(), op.ref)
		times = append(times, t)
		rates = append(rates, ratio(float64(op.records), t)/1e3)
		refs = append(refs, op.ref)
		if op.traced.wall > 0 {
			sims = append(sims, ratio(float64(op.traced.instrs), ratio(op.traced.wall.Seconds(), op.ref))/1e3)
			simRefs = append(simRefs, op.ref)
		}
		if op.storedBytes > 0 {
			bpr = append(bpr, ratio(float64(op.storedBytes), float64(op.captured)))
		}
	}
	if len(sims) == 0 { // sweep-mix13 simulates only in set-up
		for i, mr := range b.setupRuns {
			ref := (setupRefs[i] + setupRefs[i+1]) / 2
			sims = append(sims, ratio(float64(mr.instrs), ratio(mr.wall.Seconds(), ref))/1e3)
			simRefs = append(simRefs, ref)
		}
	}
	if len(bpr) == 0 {
		bpr = []float64{ratio(float64(b.inputBytes), float64(b.inputRecords))}
	}
	pct, tailV := tail(times)
	n := float64(len(ops))
	return map[string]metric{
		"setup_s":             {median(setups), "s"},
		"op_p50_ref":          {median(quiet(times, refs)), "ref"},
		"op_tail_ref":         {tailV, "ref"},
		"krec_per_ref":        {median(quiet(rates, refs)), "krec/ref"},
		"sim_kinstr_per_ref":  {median(quiet(sims, simRefs)), "kinstr/ref"},
		"alloc_mb_per_op":     {allocBytes / n / 1e6, "MB"},
		"trace_bytes_per_rec": {median(bpr), "B/rec"},
		"ok_op_frac":          {(n - float64(failed)) / n, "ratio"},
	}, pct
}

// layerMetrics computes the per-layer metrics from the ops that recorded
// spans, each the median over those ops, and the median self time of
// every span name.
func layerMetrics(ops []*opStats, heapPeak uint64) (map[string]metric, map[string]float64) {
	vals := make(map[string][]float64)
	units := make(map[string]string)
	add := func(name, unit string, v float64) {
		vals[name] = append(vals[name], v)
		units[name] = unit
	}
	self := make(map[string][]float64)
	var on, off, covered, refs []float64
	for _, op := range ops {
		refs = append(refs, op.ref)
		if op.spans == nil {
			off = append(off, op.wall.Seconds())
			add("op.mrec_per_s", "Mrec/s", ratio(float64(op.records), op.wall.Seconds())/1e6)
			continue
		}
		wall := op.wall.Seconds()
		on = append(on, wall)
		covered = append(covered, coverage(op.spans, wall))
		for name, s := range selfTimes(op.spans) {
			self[name] = append(self[name], s)
		}
		d := durations(op.spans)
		u, t := op.untraced, op.traced
		add("boot.s", "s", d["boot"])
		add("micro.untraced_run_s", "s", d["micro.run"])
		add("micro.untraced_minstr_per_s", "Minstr/s", ratio(float64(u.instrs), d["micro.run"])/1e6)
		add("micro.instrs", "count", float64(u.instrs))
		add("micro.cycles", "count", float64(u.cycles))
		add("capture.run_s", "s", d["capture.run"])
		add("capture.sim_minstr_per_s", "Minstr/s", ratio(float64(t.instrs), d["capture.run"])/1e6)
		add("capture.instrs", "count", float64(t.instrs))
		add("capture.cycles", "count", float64(t.cycles))
		add("atum.records", "count", float64(op.captured))
		add("atum.dropped", "count", float64(op.dropped))
		collector := d["capture.run"] - d["micro.run"] - op.spillWrite
		add("atum.ns_per_rec", "ns", ratio(collector, float64(op.captured))*1e9)
		add("atum.sim_dilation_x", "x", ratio(float64(t.cycles), float64(u.cycles)))
		add("atum.wall_dilation_x", "x", ratio(d["capture.run"], d["micro.run"]))
		add("atum.instr_inflation_x", "x", ratio(float64(t.instrs), float64(u.instrs)))
		add("spill.segments", "count", float64(op.segments))
		add("spill.write_s", "s", op.spillWrite)
		add("spill.close_s", "s", d["spill.close"])
		add("spill.lost", "count", float64(op.lost))
		add("spill.bytes_per_rec", "B/rec", ratio(float64(op.storedBytes), float64(op.captured)))
		add("trace.open_s", "s", d["trace.open"])
		add("trace.decode_s", "s", d["trace.decode"])
		add("trace.decode_mrec_per_s", "Mrec/s", ratio(float64(op.decoded), d["trace.decode"])/1e6)
		add("trace.summarize_s", "s", d["trace.summarize"])
		add("trace.merge_s", "s", d["trace.merge"])
		add("trace.merge_mrec_per_s", "Mrec/s", ratio(float64(op.merged), d["trace.merge"])/1e6)
		add("sweep.caches_s", "s", d["sweep.caches"])
		add("sweep.caches_mrec_cfg_per_s", "Mrec-cfg/s", ratio(float64(op.decoded)*float64(len(cacheGrid())), d["sweep.caches"])/1e6)
		add("sweep.tbs_s", "s", d["sweep.tbs"])
		add("stackdist.s", "s", d["stackdist"])
		add("sweep.stream_feed_s", "s", d["sweep.stream_feed"])
		add("sweep.stream_dropped", "count", float64(op.streamDropped))
		add("host.gc_cycles", "count", float64(op.gcCycles))
	}
	m := make(map[string]metric)
	for name, v := range vals {
		m[name] = metric{median(v), units[name]}
	}
	m["host.heap_peak_mb"] = metric{float64(heapPeak) / 1e6, "MB"}
	m["host.ref_s"] = metric{median(refs), "s"}
	m["op.wall_p50_s"] = metric{median(off), "s"}
	m["spans.overhead_frac"] = metric{ratio(median(on), median(off)) - 1, "ratio"}
	m["spans.coverage_frac"] = metric{slices.Min(covered), "ratio"}
	st := make(map[string]float64)
	for name, v := range self {
		st[name] = median(v)
	}
	return m, st
}

// writeRecord stores the run's record and, for a span run, its spans.
func writeRecord(o options, rec runRecord, ops []*opStats) error {
	base := filepath.Join(o.out, fmt.Sprintf("%s-seed%d-trace%d", o.workload, o.seed, boolInt(o.trace)))
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", append(data, '\n'), 0o644); err != nil {
		return err
	}
	if !o.trace {
		return nil
	}
	var spans []span
	for _, op := range ops {
		spans = append(spans, op.spans...)
	}
	if data, err = json.Marshal(spans); err != nil {
		return err
	}
	return os.WriteFile(base+"-spans.json", append(data, '\n'), 0o644)
}

// printReport prints the human-readable lines that precede the result.
func printReport(w io.Writer, rec runRecord) {
	fmt.Fprintf(w, "perfbench %s seed=%d trace=%v cores=%d gomaxprocs=%d %s commit=%s source=%.12s\n",
		rec.Workload, rec.Seed, rec.Trace, rec.Cores, rec.GOMAXPROCS, rec.GoVersion, rec.Commit, rec.Source)
	fmt.Fprintf(w, "command: %s\n", rec.Command)
	fmt.Fprintf(w, "mix: %s\n", strings.Join(rec.Mix, ","))
	fmt.Fprintf(w, "sim: instrs=%d cycles=%d records=%d digest=%s\n", rec.Sim.Instrs, rec.Sim.Cycles, rec.Sim.Records, rec.Sim.Digest)
	for i, e := range rec.Errors {
		if i == 5 {
			fmt.Fprintf(w, "failed: ... %d more\n", len(rec.Errors)-i)
			break
		}
		fmt.Fprintf(w, "failed: %s\n", e)
	}
	for _, name := range sortedKeys(rec.Result.Metrics) {
		m := rec.Result.Metrics[name]
		fmt.Fprintf(w, "  %-30s %14.6g %s", name, m.Value, m.Unit)
		if name == "op_tail_ref" {
			fmt.Fprintf(w, "  (p%.0f of %d ops)", rec.TailPct, rec.Result.Attempted)
		}
		fmt.Fprintln(w)
	}
	if rec.Trace {
		fmt.Fprintln(w, "self time per op (median):")
		for _, name := range sortedKeys(rec.SelfTime) {
			fmt.Fprintf(w, "  %-10s %-18s %10.6f s\n", layerOf[name], name, rec.SelfTime[name])
		}
	}
}

// commandLine is the command that started the run: the launcher passes
// its own, else the binary's arguments.
func commandLine() string {
	return envOr("PERFBENCH_COMMAND", strings.Join(os.Args, " "))
}

func envOr(key, def string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return def
}

// commit is the revision the go command stamped into the binary, marked
// "+dirty" for uncommitted changes, or "unknown" outside a repository.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	var rev, dirty string
	for _, s := range info.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "+dirty"
		}
	}
	if rev == "" {
		return "unknown"
	}
	return rev + dirty
}

// sourceHash identifies the code measured when the checkout carries no
// commit: the SHA-256 of every .go, go.mod and .s file under the working
// directory, in path order.
func sourceHash() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if ext := filepath.Ext(path); ext != ".go" && ext != ".s" && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// quiet keeps the values measured while the host ran at least as fast as
// its median speed over the run: those whose reference time is at or
// below the median reference time. In the host's slow stretches the ops
// of some workloads slow by more than the reference does (README.md), so
// a median over all ops would move with the share of the run those
// stretches took.
func quiet(vals, refs []float64) []float64 {
	m := median(refs)
	var out []float64
	for i, v := range vals {
		if refs[i] <= m {
			out = append(out, v)
		}
	}
	return out
}

// tail returns the highest percentile with at least ten ops beyond it,
// and the op time there; with fewer than eleven ops it is the slowest op.
func tail(walls []float64) (pct, v float64) {
	s := slices.Clone(walls)
	slices.Sort(s)
	i := len(s) - 11
	if i < 0 {
		return 100, s[len(s)-1]
	}
	return 100 * float64(i+1) / float64(len(s)), s[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a/b, or 0 when b is 0 (a layer the workload does not call).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
