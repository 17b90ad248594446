package atum_test

import (
	"math"
	"reflect"

	"atum/internal/atum"
	"testing"

	"atum/internal/trace"
)

// extractSegment drains the collector and parses the packed dump at
// once, while the view of reserved RAM is still valid.
func extractSegment(t *testing.T, c *atum.Collector) ([]trace.Word, atum.SegmentStats) {
	t.Helper()
	packed, st, err := c.ExtractSegment()
	if err != nil {
		t.Fatal(err)
	}
	recs, err := trace.ParseBuffer(packed)
	if err != nil {
		t.Fatal(err)
	}
	return recs, st
}

// TestWatermarkFires: with a watermark armed, the callback fires while
// the collector is still recording, and a callback that drains the
// buffer keeps the capture loss-free (OnFull never reached).
func TestWatermarkFires(t *testing.T) {
	sys := buildSystem(t, helloSrc)
	opts := atum.DefaultOptions()
	opts.BufBytes = 4096 // 512 records
	opts.Watermark = 0.5
	fires, fulls := 0, 0
	var segs [][]trace.Word
	opts.OnWatermark = func(c *atum.Collector) {
		fires++
		if !c.Recording() {
			t.Error("collector not recording inside OnWatermark")
		}
		recs, _ := extractSegment(t, c)
		segs = append(segs, recs)
	}
	opts.OnFull = func(c *atum.Collector) { fulls++ }
	col, err := atum.Install(sys.M, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(50_000_000); err != nil {
		t.Fatal(err)
	}
	if fires < 2 {
		t.Fatalf("watermark fired %d times, want several", fires)
	}
	if fulls != 0 {
		t.Errorf("OnFull fired %d times despite the spilling watermark", fulls)
	}
	if col.Dropped != 0 {
		t.Errorf("%d events dropped despite spilling", col.Dropped)
	}
	var total int
	for i, s := range segs {
		if len(s) != 256 {
			t.Errorf("segment %d has %d records, want 256 (0.5 watermark of 512)", i, len(s))
		}
		total += len(s)
	}
	if uint64(total)+uint64(col.BufferedRecords()) != col.Recorded {
		t.Errorf("segments (%d) + buffered (%d) != recorded (%d)",
			total, col.BufferedRecords(), col.Recorded)
	}
}

// TestWatermarkSpillMatchesMonolithic: a capture spilled at Watermark
// 1.0 must produce the identical record stream to the same workload
// captured into one big buffer — the collector-level half of the
// stitching guarantee (the kernel spill service tests the full path).
func TestWatermarkSpillMatchesMonolithic(t *testing.T) {
	runCapture := func(opts atum.Options) ([]trace.Word, *atum.Collector) {
		sys := buildSystem(t, helloSrc)
		var out []trace.Word
		opts.OnWatermark = func(c *atum.Collector) {
			recs, _ := extractSegment(t, c)
			out = append(out, recs...)
		}
		col, err := atum.Install(sys.M, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Run(50_000_000); err != nil {
			t.Fatal(err)
		}
		tail, _ := extractSegment(t, col)
		return append(out, tail...), col
	}

	big := atum.DefaultOptions()
	want, _ := runCapture(big) // whole reserved region, never fills

	small := atum.DefaultOptions()
	small.BufBytes = 4096
	small.Watermark = 1.0
	got, col := runCapture(small)

	if col.Dropped != 0 {
		t.Fatalf("spilling capture dropped %d events", col.Dropped)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("spilled capture (%d records) differs from monolithic (%d records)",
			len(got), len(want))
	}
}

// TestExtractSegmentStats: per-segment drop and dilation counters are
// deltas since the previous extraction, not running totals.
func TestExtractSegmentStats(t *testing.T) {
	sys := buildSystem(t, helloSrc)
	opts := atum.DefaultOptions()
	col, err := atum.Install(sys.M, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Short instruction slices keep the workload mid-flight across all
	// three extractions.
	if _, err := sys.Run(300); err != nil {
		t.Fatal(err)
	}
	recs, st := extractSegment(t, col)
	if st.Dropped != 0 {
		t.Errorf("segment 0 dropped=%d, want 0", st.Dropped)
	}
	if want := uint64(len(recs)) * uint64(opts.CostPerRecord); st.DilationCycles != want {
		t.Errorf("segment 0 dilation=%d, want %d", st.DilationCycles, want)
	}

	// Pause to force drops, then resume and capture a second segment.
	col.Pause()
	if _, err := sys.Run(300); err != nil {
		t.Fatal(err)
	}
	col.Resume()
	if _, err := sys.Run(300); err != nil {
		t.Fatal(err)
	}
	recs2, st2 := extractSegment(t, col)
	if st2.Dropped == 0 {
		t.Error("segment 1 shows no drops despite the pause")
	}
	if st2.Dropped != col.Dropped {
		t.Errorf("segment 1 dropped=%d, total=%d (first segment had none)", st2.Dropped, col.Dropped)
	}
	if want := uint64(len(recs2)) * uint64(opts.CostPerRecord); st2.DilationCycles != want {
		t.Errorf("segment 1 dilation=%d, want %d (delta, not total)", st2.DilationCycles, want)
	}

	// A third, immediate extraction is an empty segment with zero deltas.
	recs3, st3 := extractSegment(t, col)
	if len(recs3) != 0 || st3 != (atum.SegmentStats{}) {
		t.Errorf("immediate re-extract = %d records, %+v; want empty", len(recs3), st3)
	}
}

// TestWatermarkValidation: out-of-range watermarks are install errors.
// NaN is the regression case: it compares false against every bound, so
// validation that tested for the *invalid* interval let it through and
// armed a watermark of zero bytes.
func TestWatermarkValidation(t *testing.T) {
	sys := buildSystem(t, helloSrc)
	for _, wm := range []float64{-0.1, 1.5, math.NaN(), math.Inf(1), math.Inf(-1)} {
		opts := atum.DefaultOptions()
		opts.Watermark = wm
		if _, err := atum.Install(sys.M, opts); err == nil {
			t.Errorf("watermark %v accepted", wm)
		}
	}
}
