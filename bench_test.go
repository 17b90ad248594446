// Package repro holds the top-level benchmark harness: one benchmark per
// table and figure of the reproduced evaluation (see DESIGN.md §4). Each
// benchmark regenerates its experiment's data series and reports the
// headline number as a custom metric, so `go test -bench=. -benchmem`
// reproduces the paper's result shapes alongside throughput numbers.
package repro

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"atum/internal/analysis"
	"atum/internal/atum"
	"atum/internal/baseline"
	"atum/internal/cache"
	"atum/internal/kernel"
	"atum/internal/micro"
	"atum/internal/par"
	"atum/internal/sweep"
	"atum/internal/tlbsim"
	"atum/internal/trace"
	"atum/internal/workload"
)

// ---- shared fixtures ----

func benchConfig() kernel.Config {
	cfg := kernel.DefaultConfig()
	cfg.Machine.MemSize = 8 << 20
	cfg.Machine.ReservedSize = 512 << 10
	return cfg
}

var (
	mixOnce  sync.Once
	mixTrace []trace.Record
	mixErr   error
)

// benchTrace captures the standard mix once and reuses it (deterministic).
func benchTrace(b *testing.B) []trace.Record {
	b.Helper()
	mixOnce.Do(func() {
		sys, err := workload.BootMix(benchConfig(), workload.StandardMix...)
		if err != nil {
			mixErr = err
			return
		}
		cap, err := atum.Run(sys.M, atum.DefaultOptions(), func() error {
			_, err := sys.Run(2_000_000_000)
			return err
		})
		if err != nil {
			mixErr = err
			return
		}
		mixTrace = cap.All()
	})
	if mixErr != nil {
		b.Fatal(mixErr)
	}
	return mixTrace
}

func benchCacheCfg() cache.Config {
	return cache.Config{
		Label: "bench", SizeBytes: 8 << 10, BlockBytes: 16, Assoc: 1,
		Replacement: cache.LRU, WritePolicy: cache.WriteBack,
		WriteAllocate: true, PIDTags: true,
	}
}

func factory(names ...string) baseline.Factory {
	return func() (*micro.Machine, func() error, error) {
		sys, err := workload.BootMix(benchConfig(), names...)
		if err != nil {
			return nil, nil, err
		}
		return sys.M, func() error {
			_, err := sys.Run(2_000_000_000)
			return err
		}, nil
	}
}

// ---- T1: technique comparison ----

func BenchmarkT1TechniqueComparison(b *testing.B) {
	var atumDil, trapDil float64
	for i := 0; i < b.N; i++ {
		outcomes, err := baseline.Compare(factory("sieve"),
			baseline.Atum{}, baseline.Inline{}, baseline.TrapDriven{})
		if err != nil {
			b.Fatal(err)
		}
		for _, o := range outcomes {
			switch o.Name {
			case "ATUM":
				atumDil = o.Dilation()
			case "trap-driven":
				trapDil = o.Dilation()
			}
		}
	}
	b.ReportMetric(atumDil, "atum-slowdown-x")
	b.ReportMetric(trapDil, "trap-slowdown-x")
}

// ---- T2: trace characteristics ----

func BenchmarkT2TraceCharacteristics(b *testing.B) {
	recs := benchTrace(b)
	b.ResetTimer()
	var s trace.Summary
	for i := 0; i < b.N; i++ {
		s = trace.Summarize(recs)
	}
	b.ReportMetric(s.PercentSystem(), "system-refs-%")
	b.ReportMetric(float64(s.CtxSwitches), "ctx-switches")
	b.ReportMetric(float64(s.MemRefs)/float64(b.Elapsed().Seconds()+1e-9)/1e6*float64(b.N), "Mrefs/s")
}

// ---- F1: OS impact on miss rate ----

func BenchmarkF1OSImpact(b *testing.B) {
	recs := benchTrace(b)
	user := trace.FilterUser(recs)
	opts := cache.RunOptions{IncludePTE: true}
	// 2KB: the middle of the band where the kernel working set rivals
	// the cache (the F1 experiment sweeps 256B-8KB).
	cfg := benchCacheCfg()
	cfg.SizeBytes = 2 << 10
	b.ResetTimer()
	var full, userMR float64
	for i := 0; i < b.N; i++ {
		fres, err := sweep.Caches(trace.Records(recs), []cache.Config{cfg}, opts, 1)
		if err != nil {
			b.Fatal(err)
		}
		ures, err := sweep.Caches(trace.Records(user), []cache.Config{cfg}, opts, 1)
		if err != nil {
			b.Fatal(err)
		}
		full, userMR = fres[0].Stats.MissRate(), ures[0].Stats.MissRate()
	}
	b.ReportMetric(full*100, "full-miss-%")
	b.ReportMetric(userMR*100, "user-miss-%")
	b.ReportMetric(full/userMR, "os-impact-ratio")
}

// ---- F2: multiprogramming ----

func BenchmarkF2Multiprogramming(b *testing.B) {
	recs := benchTrace(b)
	opts := cache.RunOptions{IncludePTE: true}
	flush := benchCacheCfg()
	flush.PIDTags = false
	flush.FlushOnSwitch = true
	b.ResetTimer()
	var tagMR, flushMR float64
	for i := 0; i < b.N; i++ {
		res, err := sweep.Caches(trace.Records(recs), []cache.Config{benchCacheCfg(), flush}, opts, 1)
		if err != nil {
			b.Fatal(err)
		}
		tagMR, flushMR = res[0].Stats.MissRate(), res[1].Stats.MissRate()
	}
	b.ReportMetric(tagMR*100, "pid-tag-miss-%")
	b.ReportMetric(flushMR*100, "flush-miss-%")
}

// ---- F3: block size ----

func BenchmarkF3BlockSize(b *testing.B) {
	recs := benchTrace(b)
	blocks := []uint32{4, 8, 16, 32, 64, 128}
	b.ResetTimer()
	var res []cache.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = sweep.Caches(trace.Records(recs), cache.BlockConfigs(benchCacheCfg(), blocks), cache.RunOptions{IncludePTE: true}, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res[0].Stats.MissRate()*100, "4B-miss-%")
	b.ReportMetric(res[len(res)-1].Stats.MissRate()*100, "128B-miss-%")
}

// ---- F4: associativity ----

func BenchmarkF4Associativity(b *testing.B) {
	recs := benchTrace(b)
	ways := []uint32{1, 2, 4, 8}
	b.ResetTimer()
	var res []cache.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = sweep.Caches(trace.Records(recs), cache.AssocConfigs(benchCacheCfg(), ways), cache.RunOptions{IncludePTE: true}, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res[0].Stats.MissRate()*100, "1way-miss-%")
	b.ReportMetric(res[3].Stats.MissRate()*100, "8way-miss-%")
}

// ---- F5: translation buffer ----

func BenchmarkF5TLB(b *testing.B) {
	recs := benchTrace(b)
	// Mirror the F5 experiment: the hardware-realistic flush-on-switch
	// TB on the full trace versus the PID-tagged user-only estimate.
	full := tlbsim.Config{Entries: 256, Assoc: 2, SplitSystem: true, FlushOnSwitch: true, IncludeSystem: true}
	user := tlbsim.Config{Entries: 256, Assoc: 2, SplitSystem: true, PIDTags: true, IncludeSystem: false}
	b.ResetTimer()
	var fullMR, userMR float64
	for i := 0; i < b.N; i++ {
		st, err := sweep.TBs(trace.Records(recs), []tlbsim.Config{full, user}, 1)
		if err != nil {
			b.Fatal(err)
		}
		fullMR, userMR = st[0].MissRate(), st[1].MissRate()
	}
	b.ReportMetric(fullMR*100, "full-tbmiss-%")
	b.ReportMetric(userMR*100, "user-tbmiss-%")
}

// ---- F6: working sets ----

func BenchmarkF6WorkingSet(b *testing.B) {
	recs := benchTrace(b)
	user := trace.FilterUser(recs)
	taus := []uint32{1000, 100_000}
	b.ResetTimer()
	var wFull, wUser []float64
	for i := 0; i < b.N; i++ {
		wFull = analysis.WorkingSet(recs, taus)
		wUser = analysis.WorkingSet(user, taus)
	}
	b.ReportMetric(wFull[1], "full-W(100k)-pages")
	b.ReportMetric(wUser[1], "user-W(100k)-pages")
}

// ---- T3: sampling ----

func BenchmarkT3Sampling(b *testing.B) {
	recs := benchTrace(b)
	opts := cache.RunOptions{IncludePTE: true}
	per := int((128 << 10) / trace.RecordBytes)
	b.ResetTimer()
	var sampled, cont float64
	for i := 0; i < b.N; i++ {
		cres, err := sweep.Caches(trace.Records(recs), []cache.Config{benchCacheCfg()}, opts, 1)
		if err != nil {
			b.Fatal(err)
		}
		cont = cres[0].Stats.MissRate()
		var misses, accesses uint64
		for off := 0; off < len(recs); off += per {
			end := off + per
			if end > len(recs) {
				end = len(recs)
			}
			res, err := sweep.Caches(trace.Records(recs[off:end]), []cache.Config{benchCacheCfg()}, opts, 1)
			if err != nil {
				b.Fatal(err)
			}
			misses += res[0].Stats.Misses
			accesses += res[0].Stats.Accesses
		}
		sampled = float64(misses) / float64(accesses)
	}
	b.ReportMetric(100*(sampled-cont)/cont, "coldstart-error-%")
}

// ---- A1: patch-cost ablation ----

func BenchmarkA1PatchCost(b *testing.B) {
	var dil float64
	for i := 0; i < b.N; i++ {
		res, err := atum.MeasureDilation(func() (*micro.Machine, func() error, error) {
			sys, err := workload.BootMix(benchConfig(), "sieve")
			if err != nil {
				return nil, nil, err
			}
			return sys.M, func() error {
				_, err := sys.Run(2_000_000_000)
				return err
			}, nil
		}, atum.Options{CostPerRecord: 56})
		if err != nil {
			b.Fatal(err)
		}
		dil = res.Factor()
	}
	b.ReportMetric(dil, "dilation-x")
}

// ---- A2: codec ablation ----

func BenchmarkA2Codec(b *testing.B) {
	recs := benchTrace(b)
	b.ResetTimer()
	var rawN, deltaN int
	for i := 0; i < b.N; i++ {
		var raw, delta bytes.Buffer
		if err := trace.WriteFile(&raw, recs, trace.CodecRaw); err != nil {
			b.Fatal(err)
		}
		if err := trace.WriteFile(&delta, recs, trace.CodecDelta); err != nil {
			b.Fatal(err)
		}
		rawN, deltaN = raw.Len(), delta.Len()
	}
	b.ReportMetric(float64(rawN)/float64(deltaN), "compression-ratio")
	b.ReportMetric(float64(deltaN)/float64(len(recs)), "delta-bytes/record")
}

// ---- sweep engine: serial vs parallel throughput ----

// sweepJSON, when set, makes BenchmarkSweepEngine record its serial and
// parallel throughput numbers (BENCH_sweep.json):
//
//	go test -bench=SweepEngine -benchtime=1x -sweep-json=BENCH_sweep.json
var sweepJSON = flag.String("sweep-json", "", "write sweep benchmark results to this JSON file")

// sweepBenchConfigs is the config grid the sweep benchmark fans out:
// six sizes by four associativities, the cross product the paper's size
// and associativity figures sample.
func sweepBenchConfigs() []cache.Config {
	var cfgs []cache.Config
	base := benchCacheCfg()
	for _, sized := range cache.SizeConfigs(base, []uint32{1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10}) {
		cfgs = append(cfgs, cache.AssocConfigs(sized, []uint32{1, 2, 4, 8})...)
	}
	return cfgs
}

// BenchmarkSweepEngine measures the parallel sweep engine against its
// serial reference path (workers == 1) over one shared arena, and
// verifies the two produce identical results while timing them.
func BenchmarkSweepEngine(b *testing.B) {
	src := trace.NewArena(benchTrace(b))
	cfgs := sweepBenchConfigs()
	opts := cache.RunOptions{IncludePTE: true}
	nrec := float64(src.NumRecords())
	b.ResetTimer()
	var serialSec, parallelSec float64
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		serial, err := sweep.Caches(src, cfgs, opts, 1)
		if err != nil {
			b.Fatal(err)
		}
		t1 := time.Now()
		parallel, err := sweep.Caches(src, cfgs, opts, 0)
		if err != nil {
			b.Fatal(err)
		}
		t2 := time.Now()
		for j := range serial {
			if serial[j] != parallel[j] {
				b.Fatalf("config %s: serial and parallel results differ", cfgs[j].Name())
			}
		}
		serialSec, parallelSec = t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds()
	}
	nc := float64(len(cfgs))
	b.ReportMetric(nc/serialSec, "serial-configs/s")
	b.ReportMetric(nc/parallelSec, "parallel-configs/s")
	b.ReportMetric(serialSec/parallelSec, "speedup-x")

	if *sweepJSON == "" {
		return
	}
	type lane struct {
		Workers       int     `json:"workers"`
		Seconds       float64 `json:"seconds"`
		ConfigsPerSec float64 `json:"configs_per_sec"`
		RecordsPerSec float64 `json:"records_per_sec"`
	}
	out := struct {
		GeneratedBy  string  `json:"generated_by"`
		Cores        int     `json:"cores"`
		GOMAXPROCS   int     `json:"gomaxprocs"`
		TraceRecords int     `json:"trace_records"`
		Configs      int     `json:"configs"`
		Serial       lane    `json:"serial"`
		Parallel     lane    `json:"parallel"`
		SpeedupX     float64 `json:"speedup_x"`
	}{
		GeneratedBy:  "go test -bench=SweepEngine -benchtime=1x -sweep-json=" + *sweepJSON,
		Cores:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		TraceRecords: src.NumRecords(),
		Configs:      len(cfgs),
		Serial:       lane{Workers: 1, Seconds: serialSec, ConfigsPerSec: nc / serialSec, RecordsPerSec: nc * nrec / serialSec},
		Parallel:     lane{Workers: par.Resolve(0), Seconds: parallelSec, ConfigsPerSec: nc / parallelSec, RecordsPerSec: nc * nrec / parallelSec},
		SpeedupX:     serialSec / parallelSec,
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(*sweepJSON, append(data, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

// ---- simulator throughput (engineering metric) ----

func BenchmarkSimulatorThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys, err := workload.BootMix(benchConfig(), "sieve")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sys.Run(2_000_000_000); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(sys.M.Instrs), "instrs/op")
	}
}

func BenchmarkSimulatorThroughputTraced(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys, err := workload.BootMix(benchConfig(), "sieve")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := atum.Run(sys.M, atum.DefaultOptions(), func() error {
			_, err := sys.Run(2_000_000_000)
			return err
		}); err != nil {
			b.Fatal(err)
		}
	}
}
