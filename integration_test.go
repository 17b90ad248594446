package repro

import (
	"bytes"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"

	"atum/internal/atum"
	"atum/internal/baseline"
	"atum/internal/cache"
	"atum/internal/experiments"
	"atum/internal/kernel"
	"atum/internal/micro"
	"atum/internal/stackdist"
	"atum/internal/sweep"
	"atum/internal/tlbsim"
	"atum/internal/trace"
	"atum/internal/workload"
)

// TestFullPipeline exercises the complete toolchain the way a user of
// the system would: boot a mix, capture with ATUM, serialize the trace,
// read it back, and run every analysis over it.
func TestFullPipeline(t *testing.T) {
	sys, err := workload.BootMix(benchConfigT(), "sort", "sieve")
	if err != nil {
		t.Fatal(err)
	}
	cap, err := atum.Run(sys.M, atum.DefaultOptions(), func() error {
		reason, err := sys.Run(2_000_000_000)
		if err != nil {
			return err
		}
		if reason != micro.StopHalt {
			t.Fatalf("mix did not finish: %v", reason)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	recs := cap.All()
	if len(recs) < 10_000 {
		t.Fatalf("trace suspiciously small: %d records", len(recs))
	}

	// Workload correctness under tracing.
	console := sys.Console()
	for _, want := range []string{"sorted", "303"} {
		if !bytes.Contains([]byte(console), []byte(want)) {
			t.Errorf("console %q missing %q", console, want)
		}
	}

	// Serialize and restore through both codecs, reading the stream back
	// both ways: sequentially, as from a pipe, and by random access.
	for _, codec := range []uint16{trace.CodecRaw, trace.CodecDelta} {
		var buf bytes.Buffer
		if err := trace.WriteFile(&buf, recs, codec); err != nil {
			t.Fatal(err)
		}
		sc, err := trace.NewScanner(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		var scanned []trace.Word
		for {
			seg, err := sc.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			out, err := trace.DecodeSegment(seg.Codec, seg.Info, seg.Payload, nil, uint64(len(scanned)))
			if err != nil {
				t.Fatal(err)
			}
			scanned = append(scanned, out...)
		}
		if !reflect.DeepEqual(scanned, recs) {
			t.Fatalf("codec %d scanner round trip mismatch", codec)
		}
		f, err := trace.OpenReaderAt(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
		if err != nil {
			t.Fatal(err)
		}
		back, err := f.Records(0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, recs) {
			t.Fatalf("codec %d random-access round trip mismatch", codec)
		}
	}

	// Summary sanity.
	sum := trace.Summarize(recs)
	if sum.SystemRefs == 0 || sum.UserRefs == 0 || sum.CtxSwitches == 0 {
		t.Fatalf("trace incomplete: %+v", sum)
	}
	if sum.ByKind[trace.KindPTERead] == 0 {
		t.Error("no PTE reads captured")
	}

	// Cache study: user-only understates the full-system miss rate in
	// the band where the kernel rivals the cache.
	cfg := cache.Config{
		Label: "it", SizeBytes: 2 << 10, BlockBytes: 16, Assoc: 1,
		Replacement: cache.LRU, WriteAllocate: true, PIDTags: true,
	}
	src := trace.NewArena(recs)
	run := cache.RunOptions{IncludePTE: true}
	fa := cfg
	fa.SizeBytes = 256 * 16
	fa.Assoc = 256
	res, err := sweep.Caches(src, []cache.Config{cfg, fa}, run, 0)
	if err != nil {
		t.Fatal(err)
	}
	fullRes, faRes := res[0], res[1]
	userRes, err := sweep.Caches(trace.NewArena(trace.FilterUser(recs)), []cache.Config{cfg}, run, 0)
	if err != nil {
		t.Fatal(err)
	}
	if fullRes.Stats.MissRate() <= userRes[0].Stats.MissRate() {
		t.Errorf("OS impact missing: full %.4f <= user %.4f",
			fullRes.Stats.MissRate(), userRes[0].Stats.MissRate())
	}

	// TLB study: flush-on-switch TB misses exceed user-only.
	tbs, err := sweep.TBs(src, []tlbsim.Config{
		{Entries: 64, Assoc: 2, SplitSystem: true, FlushOnSwitch: true, IncludeSystem: true},
		{Entries: 64, Assoc: 2, SplitSystem: true, PIDTags: true, IncludeSystem: false},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tbFull, tbUser := tbs[0], tbs[1]; tbFull.MissRate() <= tbUser.MissRate() {
		t.Errorf("TB effect missing: full %.5f <= user %.5f", tbFull.MissRate(), tbUser.MissRate())
	}

	// Stack-distance profile agrees with the explicit simulator at a
	// fully-associative point.
	prof := stackdist.FromSource(src, stackdist.Options{BlockBytes: 16, PIDTag: true, IncludePTE: true})
	if prof.Misses(256) != faRes.Stats.Misses {
		t.Errorf("stackdist %d != simulator %d", prof.Misses(256), faRes.Stats.Misses)
	}
}

// TestTechniquesEndToEnd runs the three-technique comparison as the T1
// experiment does and checks the orderings the paper reports.
func TestTechniquesEndToEnd(t *testing.T) {
	factory := func() (*micro.Machine, func() error, error) {
		sys, err := workload.BootMix(benchConfigT(), "hash")
		if err != nil {
			return nil, nil, err
		}
		return sys.M, func() error {
			_, err := sys.Run(2_000_000_000)
			return err
		}, nil
	}
	outcomes, err := baseline.Compare(factory,
		baseline.Atum{}, baseline.Inline{}, baseline.TrapDriven{})
	if err != nil {
		t.Fatal(err)
	}
	var a, inl, trap baseline.Outcome
	for _, o := range outcomes {
		switch o.Name {
		case "ATUM":
			a = o
		case "instrumentation":
			inl = o
		case "trap-driven":
			trap = o
		}
	}
	if !(inl.Dilation() < a.Dilation() && a.Dilation() < trap.Dilation()) {
		t.Errorf("slowdown ordering broken: inl=%.1f atum=%.1f trap=%.1f",
			inl.Dilation(), a.Dilation(), trap.Dilation())
	}
	if a.Dilation() < 10 || a.Dilation() > 40 {
		t.Errorf("ATUM dilation %.1f outside the ~20x band", a.Dilation())
	}
	if !a.SawKernel || inl.SawKernel || trap.SawKernel {
		t.Error("kernel-visibility pattern wrong")
	}
}

// TestDeterministicEndToEnd: two full captures are byte-identical.
func TestDeterministicEndToEnd(t *testing.T) {
	capture := func() []trace.Word {
		sys, err := workload.BootMix(benchConfigT(), "queue", "grep")
		if err != nil {
			t.Fatal(err)
		}
		cap, err := atum.Run(sys.M, atum.DefaultOptions(), func() error {
			_, err := sys.Run(2_000_000_000)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return cap.All()
	}
	a, b := capture(), capture()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two identical runs produced different traces")
	}
}

// TestSweepDeterminism extends TestDeterministicEndToEnd from capture to
// consumption: every experiment must render a byte-identical report from
// the serial reference path (workers == 1) and from a saturated worker
// pool, whatever the machine's core count — the parallel sweep engine is
// an implementation detail, never a result change. It also holds
// EXPERIMENTS.md to the serial reports: every line of the fenced blocks
// under an experiment's "## <ID> — " heading must be a line of that
// experiment's report, whitespace aside.
func TestSweepDeterminism(t *testing.T) {
	docs := experimentDocBlocks(t)
	known := map[string]bool{}
	for _, e := range experiments.All() {
		known[e.ID] = true
	}
	for id := range docs {
		if !known[id] {
			t.Errorf("EXPERIMENTS.md has a section for %s, which is not an experiment", id)
		}
	}
	for _, e := range experiments.All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			serial, err := e.Run(experiments.Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			parallel, err := e.Run(experiments.Options{Workers: 8})
			if err != nil {
				t.Fatal(err)
			}
			if s, p := serial.String(), parallel.String(); s != p {
				t.Errorf("report differs between workers=1 and workers=8:\n--- serial ---\n%s\n--- parallel ---\n%s", s, p)
			}
			report := map[string]bool{}
			for _, line := range strings.Split(serial.String(), "\n") {
				report[strings.Join(strings.Fields(line), " ")] = true
			}
			if len(docs[e.ID]) == 0 {
				t.Errorf("EXPERIMENTS.md shows no table for %s", e.ID)
			}
			for _, line := range docs[e.ID] {
				if !report[strings.Join(strings.Fields(line), " ")] {
					t.Errorf("EXPERIMENTS.md line is not in the %s report: %q", e.ID, line)
				}
			}
		})
	}
}

// experimentDocBlocks returns, by experiment ID (in lower case, as
// experiments.All names them), the non-blank lines of the fenced blocks
// under each "## <ID> — " heading of EXPERIMENTS.md.
func experimentDocBlocks(t *testing.T) map[string][]string {
	t.Helper()
	data, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	blocks := map[string][]string{}
	id, fenced := "", false
	for _, line := range strings.Split(string(data), "\n") {
		switch {
		case strings.HasPrefix(line, "```"):
			fenced = !fenced
		case fenced:
			if id != "" && strings.TrimSpace(line) != "" {
				blocks[id] = append(blocks[id], line)
			}
		case strings.HasPrefix(line, "## "):
			id = ""
			if f := strings.Fields(line); len(f) > 2 && f[2] == "—" {
				id = strings.ToLower(f[1])
			}
		}
	}
	return blocks
}

func benchConfigT() kernel.Config {
	cfg := kernel.DefaultConfig()
	cfg.Machine.MemSize = 8 << 20
	cfg.Machine.ReservedSize = 512 << 10
	return cfg
}
