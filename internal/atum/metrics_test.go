package atum_test

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"atum/internal/atum"
	"atum/internal/obs"
	"atum/internal/trace"
)

// TestCaptureMetricsMirrorStatistics: the collector's obs counters must
// agree exactly with its exported statistics fields — total records,
// drops, fills — and the per-kind counters must sum to the total.
func TestCaptureMetricsMirrorStatistics(t *testing.T) {
	reg := obs.NewRegistry()
	sys := buildSystem(t, helloSrc)
	opts := atum.DefaultOptions()
	opts.BufBytes = 4096
	opts.Metrics = reg
	opts.OnFull = func(c *atum.Collector) {
		if _, err := c.Extract(); err != nil {
			t.Fatal(err)
		}
	}
	col, err := atum.Install(sys.M, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(50_000_000); err != nil {
		t.Fatal(err)
	}
	col.Uninstall()

	if got := reg.Counter("atum_capture_records_total").Value(); got != col.Recorded {
		t.Errorf("records metric %d, collector %d", got, col.Recorded)
	}
	if got := reg.Counter("atum_capture_dropped_total").Value(); got != col.Dropped {
		t.Errorf("dropped metric %d, collector %d", got, col.Dropped)
	}
	if got := reg.Counter("atum_capture_fills_total").Value(); got != col.Samples {
		t.Errorf("fills metric %d, collector %d", got, col.Samples)
	}
	var perKind uint64
	for _, line := range strings.Split(reg.String(), "\n") {
		if strings.HasPrefix(line, "atum_capture_records_kind_total") {
			v, err := strconv.ParseUint(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
			if err != nil {
				t.Fatalf("unparseable line %q: %v", line, err)
			}
			perKind += v
		}
	}
	if perKind != col.Recorded {
		t.Errorf("per-kind counters sum to %d, collector recorded %d", perKind, col.Recorded)
	}
}

// TestMetricsOffMeasurementPath is the dilation contract from
// EXPERIMENTS: telemetry is Go-side bookkeeping and must never charge
// simulated cycles. Two identical runs — one instrumented into a fresh
// registry, one into another — must execute the same instruction
// stream, charge exactly CostPerRecord per record, and agree cycle for
// cycle with the collector's own dilation accounting.
func TestMetricsOffMeasurementPath(t *testing.T) {
	run := func(reg *obs.Registry) (cycles, instrs, recorded, dilation uint64) {
		sys := buildSystem(t, helloSrc)
		opts := atum.DefaultOptions()
		opts.Metrics = reg
		cap, err := atum.Run(sys.M, opts, func() error {
			_, err := sys.Run(50_000_000)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return sys.M.Cycles, sys.M.Instrs, cap.Collector.Recorded, cap.Collector.DilationCycles
	}
	c1, i1, r1, d1 := run(obs.NewRegistry())
	c2, i2, r2, d2 := run(obs.NewRegistry())
	if c1 != c2 || i1 != i2 || r1 != r2 || d1 != d2 {
		t.Fatalf("telemetry perturbed the machine: run1 (c=%d i=%d r=%d d=%d) vs run2 (c=%d i=%d r=%d d=%d)",
			c1, i1, r1, d1, c2, i2, r2, d2)
	}
	if d1 != r1*56 {
		t.Errorf("dilation %d cycles != %d records x 56: something besides trace stores charged the clock", d1, r1)
	}
}

// TestCaptureCountersPublished: the trace store counts records in plain
// fields and publishes them to the obs counters once per segment. By
// the time OnFull runs, and after Uninstall, the published total
// must equal Recorded and the per-kind counters must sum to it; a
// goroutine polling the counters mid-capture must never see one
// decrease (run under -race, it also checks the publication is
// properly synchronised).
func TestCaptureCountersPublished(t *testing.T) {
	reg := obs.NewRegistry()
	total := reg.Counter("atum_capture_records_total")
	var kinds [trace.NumKinds]*obs.Counter
	for k := range kinds {
		kinds[k] = reg.Counter(fmt.Sprintf("atum_capture_records_kind_total{kind=%q}", trace.Kind(k)))
	}
	check := func(where string, c *atum.Collector) {
		t.Helper()
		if got := total.Value(); got != c.Recorded {
			t.Errorf("%s: records counter %d, collector recorded %d", where, got, c.Recorded)
		}
		var sum uint64
		for _, kc := range kinds {
			sum += kc.Value()
		}
		if sum != c.Recorded {
			t.Errorf("%s: per-kind counters sum to %d, collector recorded %d", where, sum, c.Recorded)
		}
	}

	sys := buildSystem(t, helloSrc, helloSrc)
	opts := atum.DefaultOptions()
	opts.BufBytes = 3072 // 384 records per segment
	opts.Metrics = reg
	fires := 0
	opts.OnFull = func(c *atum.Collector) {
		fires++
		check("OnFull", c)
		if _, _, err := c.ExtractSegment(); err != nil {
			t.Fatal(err)
		}
	}
	col, err := atum.Install(sys.M, opts)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var last [trace.NumKinds + 1]uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			var now [trace.NumKinds + 1]uint64
			now[0] = total.Value()
			for k, kc := range kinds {
				now[k+1] = kc.Value()
			}
			for i := range now {
				if now[i] < last[i] {
					t.Errorf("counter %d went from %d to %d mid-capture", i, last[i], now[i])
					return
				}
			}
			last = now
			runtime.Gosched()
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()
	if _, err := sys.Run(50_000_000); err != nil {
		t.Fatal(err)
	}
	if fires < 2 {
		t.Fatalf("buffer filled %d times, want several", fires)
	}
	col.Uninstall()
	check("after Uninstall", col)
}
