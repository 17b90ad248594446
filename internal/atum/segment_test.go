package atum_test

import (
	"reflect"
	"testing"

	"atum/internal/atum"
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

// TestSpillOnFullMatchesMonolithic: a capture drained in OnFull every
// time its small buffer fills must produce the identical record stream
// to the same workload captured into one big buffer — the
// collector-level half of the stitching guarantee (the kernel spill
// service tests the full path).
func TestSpillOnFullMatchesMonolithic(t *testing.T) {
	runCapture := func(opts atum.Options) ([]trace.Word, *atum.Collector) {
		sys := buildSystem(t, helloSrc)
		var out []trace.Word
		opts.OnFull = func(c *atum.Collector) {
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
	got, col := runCapture(small)

	if col.Samples < 2 {
		t.Fatalf("small buffer filled %d times, want several", col.Samples)
	}
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
