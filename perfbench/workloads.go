package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"os"
	"slices"
	"strings"
	"time"

	"atum/internal/atum"
	"atum/internal/cache"
	"atum/internal/kernel"
	"atum/internal/micro"
	"atum/internal/obs"
	"atum/internal/stackdist"
	"atum/internal/sweep"
	"atum/internal/tlbsim"
	"atum/internal/trace"
	"atum/internal/vax"
	"atum/internal/workload"
)

const (
	// mixName is the pinned process mix: 13 processes, including the
	// producer/consumer pair that meets at the kernel pipe.
	mixName = "everything"

	// icrCycles pins the interval timer at 100k cycles. Under the kernel's
	// default 10k-cycle timer a traced run of this mix livelocks in the
	// timer interrupt (see README.md).
	icrCycles = 100_000

	// budget is the instruction budget of every simulated run. A traced run
	// of the mix takes about 0.4M instructions; a run that has not halted
	// within the budget fails its op instead of running on.
	budget = 5_000_000

	segmentBytes = 64 << 10
	workers      = 1 // decode and sweep workers: the benchmark runs on one thread
)

// machineRun is what one simulated run of the mix did. Instructions are
// summed over cores; cycles are the elapsed simulated time, the largest
// core clock.
type machineRun struct {
	instrs, cycles uint64
	wall           time.Duration // host time
	console        string
	status         []uint32 // exit status per process
}

// simCounts are the op's simulated results. They are a pure function of
// the seed, so every op of a run must repeat the first op's counts exactly.
type simCounts struct {
	Instrs  uint64 `json:"instrs"`
	Cycles  uint64 `json:"cycles"`
	Records uint64 `json:"records"`
	Digest  string `json:"digest"` // FNV-64 of the analysis results
}

// opStats collects one op's measurements.
type opStats struct {
	wall          time.Duration
	ref           float64 // seconds: the reference runs just before and after the op, averaged
	records       uint64  // records the op produced or consumed
	storedBytes   uint64  // stream bytes the op stored
	untraced      machineRun
	traced        machineRun
	captured      uint64 // records the collector recorded
	segments      uint64
	lost, dropped uint64
	spillWrite    float64 // seconds in SegmentWriter writes, from the spill registry
	decoded       uint64  // records decoded by trace.decode
	merged        uint64  // records in the merged stream
	streamDropped uint64
	gcCycles      uint64
	spillReg      *obs.Registry // the spill services' private metrics
	sim           simCounts
	spans         []span
}

// bench is one benchmark run's state.
type bench struct {
	mix  []string
	want string // the mix's expected console output, in spawn order
	rec  recorder
	dir  string // scratch files of this run

	input        string // sweep-mix13: the captured stream
	inputRecords uint64
	inputBytes   uint64
	setupRuns    []machineRun // sweep-mix13: the traced run of each input capture

	// corrupt, when set, damages a captured stream before it is decoded;
	// tests use it to show a bad stream fails its op.
	corrupt func([]byte) []byte
}

// newBench permutes the mix's spawn order from the seed.
func newBench(seed int64, dir string) *bench {
	mix := slices.Clone(workload.Mixes[mixName])
	rand.New(rand.NewSource(seed)).Shuffle(len(mix), func(i, j int) { mix[i], mix[j] = mix[j], mix[i] })
	var want strings.Builder
	for _, name := range mix {
		w, _ := workload.ByName(name)
		want.WriteString(w.Expect)
	}
	return &bench{mix: mix, want: want.String(), dir: dir}
}

type workloadDef struct {
	name  string
	setup func(*bench) error // one set-up; repeated and timed by the runner
	op    func(*bench, *opStats) error
}

// workloads: why each was chosen is in README.md.
var workloads = []workloadDef{
	{"capture-mix13", setupAssemble, opCapture},
	{"sweep-mix13", setupSweep, opSweep},
	{"smp2-stream", setupAssemble, opSMP},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func sysConfig(cpus int) kernel.Config {
	cfg := kernel.DefaultConfig()
	cfg.Machine.MemSize = 8 << 20
	cfg.Machine.ReservedSize = 512 << 10
	cfg.ICRCycles = icrCycles
	cfg.CPUs = cpus
	return cfg
}

// setupAssemble checks that the kernel and every program of the mix
// assemble: a bad input fails set-up rather than every op.
func setupAssemble(b *bench) error {
	if _, err := vax.Assemble(kernel.Source); err != nil {
		return fmt.Errorf("kernel: %w", err)
	}
	for _, name := range b.mix {
		w, _ := workload.ByName(name)
		if _, err := w.Program(); err != nil {
			return err
		}
	}
	return nil
}

// setupSweep captures the mix on one CPU into a stream file, the input
// every sweep-mix13 op reads.
func setupSweep(b *bench) error {
	if err := setupAssemble(b); err != nil {
		return err
	}
	b.input = fmt.Sprintf("%s/sweep-input-%d.trc", b.dir, os.Getpid())
	f, err := os.Create(b.input)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	var st opStats
	sys, err := b.boot(1)
	if err != nil {
		return err
	}
	svcs, err := b.startSpill(sys, []io.Writer{w}, &st, nil)
	if err != nil {
		return err
	}
	if err := b.tracedRun(sys, svcs, &st); err != nil {
		return err
	}
	if err := sameOutput("input capture console", st.traced.console, b.want, 1); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	b.inputRecords, b.inputBytes = st.captured, st.storedBytes
	b.setupRuns = append(b.setupRuns, st.traced)
	return nil
}

// boot builds the mix on a machine with cpus processors.
func (b *bench) boot(cpus int) (*kernel.System, error) {
	var sys *kernel.System
	err := b.rec.do("boot", func() (err error) {
		sys, err = workload.BootMix(sysConfig(cpus), b.mix...)
		return err
	})
	return sys, err
}

// run runs a booted system to its halt under a span.
func (b *bench) run(name string, sys *kernel.System) (machineRun, error) {
	var mr machineRun
	var reason micro.StopReason
	t0 := time.Now()
	err := b.rec.do(name, func() (err error) {
		reason, err = sys.Run(budget)
		return err
	})
	mr.wall = time.Since(t0)
	for _, c := range sys.Cores {
		mr.instrs += c.Instrs
		mr.cycles = max(mr.cycles, c.Cycles)
	}
	if err != nil {
		return mr, err
	}
	if reason != micro.StopHalt {
		return mr, fmt.Errorf("%s stopped (%v) after %d instructions without halting", name, reason, mr.instrs)
	}
	mr.console = sys.Console()
	for _, p := range sys.Procs {
		s, err := sys.ExitStatus(p)
		if err != nil {
			return mr, err
		}
		mr.status = append(mr.status, s)
	}
	return mr, nil
}

// untraced boots the mix and runs it without tracing: the dilation
// reference. Its console must hold exactly the mix's expected output.
func (b *bench) untraced(cpus int, st *opStats) error {
	sys, err := b.boot(cpus)
	if err != nil {
		return err
	}
	if st.untraced, err = b.run("micro.run", sys); err != nil {
		return err
	}
	return sameOutput("untraced console", st.untraced.console, b.want, cpus)
}

// startSpill installs one spill service per core. One CPU writes the
// delta codec raw; more CPUs write sequence-stamped, flate-encoded
// streams.
func (b *bench) startSpill(sys *kernel.System, sinks []io.Writer, st *opStats, onSeg func(trace.StreamSegment)) ([]*kernel.SpillService, error) {
	reg := obs.NewRegistry()
	cfg := kernel.SpillConfig{
		Options:      atum.DefaultOptions(),
		SegmentBytes: segmentBytes,
		Codec:        trace.CodecDelta,
		Meta:         "perfbench " + strings.Join(b.mix, ","),
		OnSegment:    onSeg,
		Metrics:      reg,
	}
	var svcs []*kernel.SpillService
	err := b.rec.do("spill.start", func() error {
		if sys.NumCPUs() == 1 {
			svc, err := kernel.StartSpill(sys, &countWriter{w: sinks[0], n: &st.storedBytes}, cfg)
			svcs = []*kernel.SpillService{svc}
			return err
		}
		cfg.Encoding = trace.SegEncFlate
		cw := make([]io.Writer, len(sinks))
		for i, s := range sinks {
			cw[i] = &countWriter{w: s, n: &st.storedBytes}
		}
		var err error
		svcs, err = kernel.StartSpillCPUs(sys, cw, cfg)
		return err
	})
	st.spillReg = reg
	return svcs, err
}

// tracedRun runs the system under its spill services, closes them and
// checks the spill accounting of every core.
func (b *bench) tracedRun(sys *kernel.System, svcs []*kernel.SpillService, st *opStats) error {
	var runErr error
	st.traced, runErr = b.run("capture.run", sys)
	closeErr := b.rec.do("spill.close", func() error {
		var first error
		for _, s := range svcs {
			if err := s.Close(); err != nil && first == nil {
				first = err
			}
		}
		return first
	})
	st.spillWrite = st.spillReg.Histogram("atum_spill_latency_seconds", obs.DefSecondsBuckets).Sum()
	if err := errors.Join(runErr, closeErr); err != nil {
		return err
	}
	for c, s := range svcs {
		col := s.Collector()
		st.captured += col.Recorded
		st.dropped += col.Dropped
		st.lost += s.LostRecords()
		st.segments += uint64(s.Segments())
		if col.Recorded != s.SpilledRecords()+s.LostRecords() {
			return fmt.Errorf("cpu %d: recorded %d != spilled %d + lost %d", c, col.Recorded, s.SpilledRecords(), s.LostRecords())
		}
		if s.LostRecords() != 0 || col.Dropped != 0 {
			return fmt.Errorf("cpu %d: %d records lost, %d dropped", c, s.LostRecords(), col.Dropped)
		}
	}
	return nil
}

// opCapture: untraced reference run, traced capture into memory, decode
// and summary, all on one CPU.
func opCapture(b *bench, st *opStats) error {
	if err := b.untraced(1, st); err != nil {
		return err
	}
	sys, err := b.boot(1)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	svcs, err := b.startSpill(sys, []io.Writer{&buf}, st, nil)
	if err != nil {
		return err
	}
	if err := b.tracedRun(sys, svcs, st); err != nil {
		return err
	}
	if err := b.checkTraced(st, 1); err != nil {
		return err
	}
	st.records = st.captured
	data := buf.Bytes()
	if b.corrupt != nil {
		data = b.corrupt(data)
	}
	var f *trace.File
	if err := b.rec.do("trace.open", func() (err error) {
		f, err = trace.OpenReaderAt(bytes.NewReader(data), int64(len(data)))
		return err
	}); err != nil {
		return err
	}
	var arena *trace.Arena
	if err := b.rec.do("trace.decode", func() (err error) {
		arena, err = f.Arena(workers)
		return err
	}); err != nil {
		return err
	}
	st.decoded = uint64(arena.NumRecords())
	var sum trace.Summary
	b.rec.do("trace.summarize", func() error {
		sum = trace.SummarizeSource(arena)
		return nil
	})
	if st.decoded != st.captured || sum.Total != st.captured {
		return fmt.Errorf("decoded %d records, summarized %d, spilled %d", st.decoded, sum.Total, st.captured)
	}
	st.sim = simCounts{st.traced.instrs, st.traced.cycles, st.captured,
		digest(sum.Total, sum.MemRefs, sum.UserRefs, sum.SystemRefs, sum.IFetches, sum.Reads, sum.Writes,
			sum.CtxSwitches, sum.Exceptions, uint64(sum.DistinctPIDs), uint64(sum.DistinctPages))}
	return nil
}

// checkTraced compares the traced run with the untraced reference: the
// same output and the same exit status for every process.
func (b *bench) checkTraced(st *opStats, cpus int) error {
	if err := sameOutput("traced console", st.traced.console, st.untraced.console, cpus); err != nil {
		return err
	}
	if !slices.Equal(st.traced.status, st.untraced.status) {
		return fmt.Errorf("exit statuses differ: traced %v, untraced %v", st.traced.status, st.untraced.status)
	}
	return nil
}

// cacheGrid is the 24-config sweep grid: six sizes by four
// associativities over 16-byte PID-tagged write-back blocks.
func cacheGrid() []cache.Config {
	base := cache.Config{
		SizeBytes: 8 << 10, BlockBytes: 16, Assoc: 1,
		Replacement: cache.LRU, WritePolicy: cache.WriteBack,
		WriteAllocate: true, PIDTags: true,
	}
	var cfgs []cache.Config
	for _, sized := range cache.SizeConfigs(base, []uint32{1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10}) {
		cfgs = append(cfgs, cache.AssocConfigs(sized, []uint32{1, 2, 4, 8})...)
	}
	return cfgs
}

// tbConfigs are the flush-on-switch full-system TB and the PID-tagged
// user-only TB of experiment F5.
func tbConfigs() []tlbsim.Config {
	return []tlbsim.Config{
		{Entries: 256, Assoc: 2, SplitSystem: true, FlushOnSwitch: true, IncludeSystem: true},
		{Entries: 256, Assoc: 2, SplitSystem: true, PIDTags: true},
	}
}

var (
	cacheOpts     = cache.RunOptions{IncludePTE: true}
	stackdistOpts = stackdist.Options{BlockBytes: 16, PIDTag: true, IncludePTE: true}
)

// opSweep: open the stored capture through mmap, decode it and sweep the
// cache grid, the TBs and stack distances over it.
func opSweep(b *bench, st *opStats) error {
	var f *trace.File
	if err := b.rec.do("trace.open", func() (err error) {
		f, err = trace.OpenFileMapped(b.input)
		return err
	}); err != nil {
		return err
	}
	defer f.Close()
	var arena *trace.Arena
	if err := b.rec.do("trace.decode", func() (err error) {
		arena, err = f.Arena(workers)
		return err
	}); err != nil {
		return err
	}
	st.decoded = uint64(arena.NumRecords())
	st.records = st.decoded
	if st.decoded != b.inputRecords {
		return fmt.Errorf("decoded %d records, captured %d", st.decoded, b.inputRecords)
	}
	var caches []cache.Result
	if err := b.rec.do("sweep.caches", func() (err error) {
		caches, err = sweep.Caches(arena, cacheGrid(), cacheOpts, workers)
		return err
	}); err != nil {
		return err
	}
	var tbs []tlbsim.Stats
	if err := b.rec.do("sweep.tbs", func() (err error) {
		tbs, err = sweep.TBs(arena, tbConfigs(), workers)
		return err
	}); err != nil {
		return err
	}
	var prof *stackdist.Profile
	b.rec.do("stackdist", func() error {
		prof = stackdist.FromSource(arena, stackdistOpts)
		return nil
	})
	var misses []uint64
	for _, r := range caches {
		if r.Stats.Accesses == 0 || r.Stats.Accesses != caches[0].Stats.Accesses {
			return fmt.Errorf("cache %s: %d accesses, first config %d", r.Config.Name(), r.Stats.Accesses, caches[0].Stats.Accesses)
		}
		misses = append(misses, r.Stats.Misses)
	}
	for _, s := range tbs {
		if s.Accesses == 0 {
			return errors.New("a TB config saw no accesses")
		}
		misses = append(misses, s.Misses)
	}
	if prof.Total == 0 {
		return errors.New("stackdist analysed no references")
	}
	misses = append(misses, prof.Total, prof.Cold, prof.Misses(64), prof.Misses(1024))
	st.sim = simCounts{Records: st.decoded, Digest: digest(misses...)}
	return nil
}

// streamCaches are the four cache configs of the teed streaming sweep.
func streamCaches() []cache.Config {
	var cfgs []cache.Config
	for _, c := range cacheGrid() {
		if c.Assoc == 2 && c.SizeBytes >= 4<<10 && c.SizeBytes <= 32<<10 {
			cfgs = append(cfgs, c)
		}
	}
	return cfgs
}

// opSMP: the mix on two CPUs, untraced and then traced with flate spill,
// a 6-config streaming sweep teed off the spill path, and a merge of the
// two per-CPU streams.
func opSMP(b *bench, st *opStats) error {
	const cpus = 2
	if err := b.untraced(cpus, st); err != nil {
		return err
	}
	sys, err := b.boot(cpus)
	if err != nil {
		return err
	}
	p := sweep.NewPipeline(1)
	var results []func() (uint64, error)
	for _, cfg := range streamCaches() {
		sim, err := cache.NewUnifiedSim(cfg, cacheOpts)
		if err != nil {
			return err
		}
		get := sweep.AddSim[cache.Result](p, cfg.Name(), sim)
		results = append(results, func() (uint64, error) { r, err := get(); return r.Stats.Misses, err })
	}
	for _, cfg := range tbConfigs() {
		sim, err := tlbsim.NewSim(cfg)
		if err != nil {
			return err
		}
		get := sweep.AddSim[tlbsim.Stats](p, cfg.Name(), sim)
		results = append(results, func() (uint64, error) { r, err := get(); return r.Misses, err })
	}
	tee := func(seg trace.StreamSegment) {
		b.rec.do("sweep.stream_feed", func() error { return p.HandleSegment(seg) })
	}
	bufs := make([]*bytes.Buffer, cpus)
	sinks := make([]io.Writer, cpus)
	for i := range bufs {
		bufs[i] = new(bytes.Buffer)
		sinks[i] = bufs[i]
	}
	svcs, err := b.startSpill(sys, sinks, st, tee)
	if err != nil {
		return err
	}
	if err := b.tracedRun(sys, svcs, st); err != nil {
		return err
	}
	if err := b.checkTraced(st, cpus); err != nil {
		return err
	}
	st.records = st.captured
	files := make([]*trace.File, cpus)
	if err := b.rec.do("trace.open", func() (err error) {
		for i, buf := range bufs {
			data := buf.Bytes()
			if b.corrupt != nil {
				data = b.corrupt(data)
			}
			if files[i], err = trace.OpenReaderAt(bytes.NewReader(data), int64(len(data))); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if err := b.rec.do("trace.merge", func() error {
		var out bytes.Buffer
		if err := trace.MergeCPUs(&out, "perfbench merged", files...); err != nil {
			return err
		}
		mf, err := trace.OpenReaderAt(bytes.NewReader(out.Bytes()), int64(out.Len()))
		if err != nil {
			return err
		}
		st.merged = mf.NumRecords()
		return nil
	}); err != nil {
		return err
	}
	st.streamDropped = p.DroppedRecords()
	fed := p.RecordsFed()
	if st.merged != st.captured || fed != st.captured || st.streamDropped != 0 {
		return fmt.Errorf("merged %d records, streamed %d (%d dropped), spilled %d", st.merged, fed, st.streamDropped, st.captured)
	}
	var misses []uint64
	for _, get := range results {
		m, err := get()
		if err != nil {
			return err
		}
		misses = append(misses, m)
	}
	st.sim = simCounts{st.traced.instrs, st.traced.cycles, st.captured, digest(misses...)}
	return nil
}

// sameOutput checks that a console holds the expected output. Tracing
// dilates simulated time, so the 100k-cycle timer preempts at other
// points and the processes' outputs interleave differently: on one CPU
// whole lines are compared as a multiset, and on more CPUs, where cores
// interleave within a line, the bytes are.
func sameOutput(what, got, want string, cpus int) error {
	var g, w []string
	if cpus == 1 {
		g, w = strings.SplitAfter(got, "\n"), strings.SplitAfter(want, "\n")
	} else {
		g, w = strings.Split(got, ""), strings.Split(want, "")
	}
	slices.Sort(g)
	slices.Sort(w)
	if !slices.Equal(g, w) {
		return fmt.Errorf("%s %q does not hold the expected output %q", what, got, want)
	}
	return nil
}

// countWriter counts the bytes that reach a sink.
type countWriter struct {
	w io.Writer
	n *uint64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	*c.n += uint64(n)
	return n, err
}

func digest(vs ...uint64) string {
	h := fnv.New64a()
	for _, v := range vs {
		binary.Write(h, binary.LittleEndian, v)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
