package kernel_test

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"atum/internal/atum"
	"atum/internal/kernel"
	"atum/internal/micro"
	"atum/internal/obs"
	"atum/internal/trace"
)

// TestSpillPollDuringCapture is the counter-race regression test: a
// monitoring goroutine hammers the service's accessors while the
// capture loop spills segments. Before the counters became atomics
// (and the error/closed state moved behind a mutex) this failed under
// -race; now it must pass, and the polled values must be monotonically
// consistent with the final totals.
func TestSpillPollDuringCapture(t *testing.T) {
	sys := spillSystem(t)
	var sink bytes.Buffer
	svc, err := kernel.StartSpill(sys, &sink, kernel.SpillConfig{
		Options:      atum.DefaultOptions(),
		SegmentBytes: 4 << 10,
		Codec:        trace.CodecDelta,
		Meta:         "poll-test",
	})
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	var polls uint64
	var maxSeen uint64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			rec := svc.SpilledRecords()
			if rec < maxSeen {
				t.Errorf("SpilledRecords went backwards: %d after %d", rec, maxSeen)
				return
			}
			maxSeen = rec
			svc.LostRecords()
			svc.Segments()
			svc.SinkErr()
			if polls++; polls == 1 {
				close(started)
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	// Don't start the machine until the poller is live, so the polling
	// genuinely overlaps the capture instead of racing its startup.
	<-started

	if _, err := sys.Run(50_000_000); err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	close(done)
	wg.Wait()

	if polls == 0 {
		t.Fatal("poller never ran")
	}
	if maxSeen > svc.SpilledRecords() {
		t.Fatalf("polled %d spilled records, final total %d", maxSeen, svc.SpilledRecords())
	}
	if svc.Segments() == 0 || svc.SpilledRecords() == 0 {
		t.Fatalf("capture did not spill: %d segments, %d records", svc.Segments(), svc.SpilledRecords())
	}
}

// firstLastSink fails with a distinctive error on the first rejected
// write and a different one afterwards, so tests can tell whether a
// caller reports the first failure or a later (flush-time) one.
type firstLastSink struct {
	data   bytes.Buffer
	limit  int
	failed bool
}

func (s *firstLastSink) Write(p []byte) (int, error) {
	if s.data.Len()+len(p) > s.limit {
		if !s.failed {
			s.failed = true
			return 0, fmt.Errorf("first sink failure")
		}
		return 0, fmt.Errorf("later sink failure")
	}
	return s.data.Write(p)
}

// TestSpillCloseAfterSinkFailure pins the Close contract when the sink
// has failed mid-capture: Close reports the *first* sink error (not the
// flush error that follows it), a second Close is an idempotent replay
// of the same error, the patches come off (no references are even
// counted as dropped afterwards), and every recorded record is
// accounted for: Recorded == SpilledRecords + LostRecords.
func TestSpillCloseAfterSinkFailure(t *testing.T) {
	sys := spillSystem(t)
	sink := &firstLastSink{limit: 8 << 10}
	svc, err := kernel.StartSpill(sys, sink, kernel.SpillConfig{
		Options:      atum.DefaultOptions(),
		SegmentBytes: 4 << 10,
		Codec:        trace.CodecRaw,
	})
	if err != nil {
		t.Fatal(err)
	}
	// First leg: run in small slices until the sink fails and the
	// collector pauses (the workload must not halt first).
	for i := 0; svc.SinkErr() == nil; i++ {
		if i > 10_000 {
			t.Fatal("sink never failed; shrink the limit")
		}
		reason, err := sys.Run(1000)
		if err != nil {
			t.Fatal(err)
		}
		if reason == micro.StopHalt {
			t.Fatal("workload halted before the sink failed")
		}
	}
	// The recovery a monitor might attempt: resume capture. The buffer
	// partially refills; those records can never reach the dead sink
	// and must surface in LostRecords at Close, not silently vanish.
	col := svc.Collector()
	col.Resume()
	for i := 0; col.BufferedRecords() == 0; i++ {
		if i > 1000 {
			t.Fatal("test needs records in the buffer at Close")
		}
		if _, err := sys.Run(10); err != nil {
			t.Fatal(err)
		}
	}

	err = svc.Close()
	if err == nil {
		t.Fatal("Close after sink failure reported success")
	}
	if !strings.Contains(err.Error(), "first sink failure") {
		t.Errorf("Close reported %q, want the first sink error", err)
	}
	if again := svc.Close(); again == nil || again.Error() != err.Error() {
		t.Errorf("second Close = %v, want the same %v", again, err)
	}

	if got, want := svc.SpilledRecords()+svc.LostRecords(), col.Recorded; got != want {
		t.Errorf("Spilled(%d) + Lost(%d) = %d, want Recorded = %d: records vanished unaccounted",
			svc.SpilledRecords(), svc.LostRecords(), got, want)
	}

	// Patches are uninstalled: further execution must not move the
	// collector's counters, not even the dropped count.
	recorded, dropped := col.Recorded, col.Dropped
	sys.Run(1_000_000)
	if col.Recorded != recorded || col.Dropped != dropped {
		t.Errorf("collector still hooked after Close: recorded %d->%d dropped %d->%d",
			recorded, col.Recorded, dropped, col.Dropped)
	}

	// What did reach the sink is still a valid stream.
	rd, err := trace.OpenReaderAt(bytes.NewReader(sink.data.Bytes()), int64(sink.data.Len()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := rd.Records(2)
	if err != nil {
		t.Fatalf("pre-failure stream does not decode: %v", err)
	}
	if uint64(len(got)) != svc.SpilledRecords() {
		t.Fatalf("decoded %d records, service spilled %d", len(got), svc.SpilledRecords())
	}
}

// TestSpillMetricsRegistry checks the service's live telemetry against
// its own accessors: a dedicated registry sees the same segments,
// records, bytes and latency observations the service reports, and the
// exposition contains every required metric name.
func TestSpillMetricsRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	sys := spillSystem(t)
	var sink bytes.Buffer
	svc, err := kernel.StartSpill(sys, &sink, kernel.SpillConfig{
		Options:      atum.DefaultOptions(),
		SegmentBytes: 4 << 10,
		Codec:        trace.CodecDelta,
		Metrics:      reg,
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

	if got, want := reg.Counter("atum_spill_segments_total").Value(), uint64(svc.Segments()); got != want {
		t.Errorf("segments metric %d, accessor %d", got, want)
	}
	if got, want := reg.Counter("atum_spill_records_total").Value(), svc.SpilledRecords(); got != want {
		t.Errorf("records metric %d, accessor %d", got, want)
	}
	if got, want := reg.Counter("atum_spill_bytes_total").Value(), uint64(sink.Len()); got != want {
		t.Errorf("bytes metric %d, sink holds %d", got, want)
	}
	if got := reg.Histogram("atum_spill_latency_seconds", obs.DefSecondsBuckets).Count(); got != uint64(svc.Segments()) {
		t.Errorf("latency histogram has %d observations, want %d", got, svc.Segments())
	}
	// The collector instrumented into the same registry.
	if got, want := reg.Counter("atum_capture_records_total").Value(), svc.Collector().Recorded; got != want {
		t.Errorf("capture records metric %d, collector recorded %d", got, want)
	}
	text := reg.String()
	for _, name := range []string{
		"atum_spill_segments_total", "atum_spill_records_total",
		"atum_spill_bytes_total", "atum_spill_lost_records_total",
		"atum_spill_sink_stalls_total", "atum_spill_latency_seconds_count",
		"atum_capture_records_total", "atum_capture_fills_total",
	} {
		if !strings.Contains(text, name) {
			t.Errorf("exposition missing %s", name)
		}
	}
}
