package kernel_test

import (
	"bytes"
	"reflect"
	"sync"
	"testing"
	"time"

	"atum/internal/atum"
	"atum/internal/cache"
	"atum/internal/kernel"
	"atum/internal/sweep"
	"atum/internal/trace"
)

// collectSim accumulates the records a pipeline feeds it (copying
// element values, so the pipeline's buffer reuse is safe).
type collectSim struct{ recs []trace.Word }

func (c *collectSim) Feed(chunk []trace.Word) error {
	c.recs = append(c.recs, chunk...)
	return nil
}
func (c *collectSim) Result() ([]trace.Word, error) { return c.recs, nil }

// TestSpillStreamPipelineLive is the end-to-end tentpole test: a live
// capture whose spill service tees every segment straight into the
// streaming pipeline must feed the simulators the exact record stream a
// monolithic capture of the same workload produces — and the
// incremental cache results must equal a whole-trace replay of that
// stream.
// No trace file is ever re-read.
func TestSpillStreamPipelineLive(t *testing.T) {
	want := captureMonolithic(t)
	if len(want) == 0 {
		t.Fatal("monolithic capture is empty")
	}
	cfg := cache.Config{
		Label: "live", SizeBytes: 4 << 10, BlockBytes: 16, Assoc: 2,
		Replacement: cache.LRU, WritePolicy: cache.WriteBack,
		WriteAllocate: true, PIDTags: true,
	}
	opts := cache.RunOptions{IncludePTE: true}
	wantRes, err := sweep.Caches(trace.NewArena(want), []cache.Config{cfg}, opts, 1)
	if err != nil {
		t.Fatal(err)
	}

	for _, codec := range []uint16{trace.CodecRaw, trace.CodecDelta} {
		p := sweep.NewPipeline(2)
		col := &collectSim{}
		collectRecs := sweep.AddSim[[]trace.Word](p, "collect", col)
		sim, err := cache.NewUnifiedSim(cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		collectRes := sweep.AddSim[cache.Result](p, cfg.Name(), sim)

		sys := spillSystem(t)
		var sink bytes.Buffer
		svc, err := kernel.StartSpill(sys, &sink, kernel.SpillConfig{
			Options:      atum.DefaultOptions(),
			SegmentBytes: 4 << 10, // several segments' worth of workload
			Codec:        codec,
			OnSegment:    p.OnSegment(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Run(50_000_000); err != nil {
			t.Fatal(err)
		}
		if err := svc.Close(); err != nil {
			t.Fatal(err)
		}

		got, err := collectRecs()
		if err != nil {
			t.Fatalf("codec=%d: pipeline error: %v", codec, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("codec=%d: streamed %d records differ from monolithic %d", codec, len(got), len(want))
		}
		if fed := p.RecordsFed(); fed != svc.SpilledRecords() || fed != uint64(len(want)) {
			t.Fatalf("codec=%d: pipeline fed %d records, service spilled %d, monolithic %d",
				codec, fed, svc.SpilledRecords(), len(want))
		}
		res, err := collectRes()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, wantRes[0]) {
			t.Fatalf("codec=%d: streamed cache result %+v != whole-trace replay %+v", codec, res, wantRes[0])
		}
	}
}

// TestSpillCloseWhileSegmentInFlight is the regression test for the
// concurrent-Close accounting race: while the first Close's final spill
// is still delivering a segment (sink write + OnSegment observer), a
// second Close used to return immediately with the segment's records
// neither spilled nor lost — Recorded != SpilledRecords + LostRecords.
// Every returning Close must instead block until the drain finishes and
// observe final accounting. Run under -race (the CI job does).
func TestSpillCloseWhileSegmentInFlight(t *testing.T) {
	sys := spillSystem(t)

	entered := make(chan struct{}) // the tee is holding the final segment
	release := make(chan struct{}) // lets the tee finish
	var teeOnce sync.Once
	var teeRecords uint64
	var sink bytes.Buffer
	svc, err := kernel.StartSpill(sys, &sink, kernel.SpillConfig{
		Options: atum.DefaultOptions(),
		// One segment: the whole capture stays buffered until Close's
		// final drain, so the only tee call is the one Close delivers.
		Codec: trace.CodecRaw,
		OnSegment: func(s trace.StreamSegment) {
			teeRecords += s.Info.Records
			teeOnce.Do(func() {
				close(entered)
				<-release
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(50_000_000); err != nil {
		t.Fatal(err)
	}

	type view struct {
		err           error
		recorded      uint64
		spilled, lost uint64
	}
	snap := func(err error) view {
		return view{
			err:      err,
			recorded: svc.Collector().Recorded,
			spilled:  svc.SpilledRecords(),
			lost:     svc.LostRecords(),
		}
	}
	first := make(chan view, 1)
	second := make(chan view, 1)
	go func() { first <- snap(svc.Close()) }()
	<-entered // the first Close is mid-segment, blocked in the tee
	go func() { second <- snap(svc.Close()) }()
	// Give a buggy second Close every chance to return early while the
	// segment is still in flight.
	time.Sleep(50 * time.Millisecond)
	select {
	case v := <-second:
		t.Fatalf("second Close returned while the final segment was in flight: %+v", v)
	default:
	}
	close(release)

	for _, v := range []view{<-first, <-second} {
		if v.err != nil {
			t.Fatalf("Close: %v", v.err)
		}
		if v.recorded == 0 {
			t.Fatal("nothing recorded")
		}
		if v.recorded != v.spilled+v.lost {
			t.Errorf("accounting hole at Close return: Recorded=%d but Spilled=%d + Lost=%d",
				v.recorded, v.spilled, v.lost)
		}
	}
	if teeRecords != svc.SpilledRecords() {
		t.Errorf("tee observed %d records, service spilled %d", teeRecords, svc.SpilledRecords())
	}
	// The stream on disk is complete: it decodes to exactly the spilled
	// records.
	rd, err := trace.OpenReaderAt(bytes.NewReader(sink.Bytes()), int64(sink.Len()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := rd.Records(1)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(got)) != svc.SpilledRecords() {
		t.Errorf("stream decodes to %d records, service spilled %d", len(got), svc.SpilledRecords())
	}
}
