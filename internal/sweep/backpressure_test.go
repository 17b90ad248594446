package sweep

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"atum/internal/trace"
)

// countSim counts records; Feed can be slowed or failed to provoke the
// policies.
type countSim struct {
	n     atomic.Uint64
	delay time.Duration
	fail  error
	gate  chan struct{} // if non-nil, Feed blocks until it closes
}

func (s *countSim) Feed(chunk []trace.Word) error {
	if s.gate != nil {
		<-s.gate
	}
	if s.delay > 0 {
		time.Sleep(s.delay)
	}
	if s.fail != nil {
		return s.fail
	}
	s.n.Add(uint64(len(chunk)))
	return nil
}

func (s *countSim) Result() (uint64, error) { return s.n.Load(), nil }

func bpChunk(n int, base uint32) []trace.Word {
	recs := make([]trace.Word, n)
	for i := range recs {
		recs[i] = trace.Pack(trace.KindIFetch, base+uint32(i)*4, 4, 1, true, false, 0)
	}
	return recs
}

// TestBackpressureBlockIsDefaultPath pins that the Block policy (and no
// policy at all) consumes every record synchronously: Feed returns only
// after the simulators ate the chunk, nothing is dropped, and results
// are identical to the policy-free pipeline.
func TestBackpressureBlockIsDefaultPath(t *testing.T) {
	for _, explicit := range []bool{false, true} {
		p := NewPipeline(1)
		sim := &countSim{}
		collect := AddSim[uint64](p, "count", sim)
		if explicit {
			p.SetBackpressure(BackpressureBlock, 0)
		}
		for i := 0; i < 10; i++ {
			if err := p.Feed(bpChunk(100, uint32(i*4096))); err != nil {
				t.Fatal(err)
			}
			// Synchronous contract: the records are consumed by the time
			// Feed returns.
			if got, _ := sim.Result(); got != uint64((i+1)*100) {
				t.Fatalf("explicit=%v: after feed %d sim has %d records, want %d", explicit, i, got, (i+1)*100)
			}
		}
		if err := p.Drain(); err != nil {
			t.Fatal(err)
		}
		if p.DroppedRecords() != 0 {
			t.Errorf("explicit=%v: block policy dropped %d records", explicit, p.DroppedRecords())
		}
		got, err := collect()
		if err != nil || got != 1000 {
			t.Fatalf("explicit=%v: collect = %d, %v; want 1000", explicit, got, err)
		}
	}
}

// TestBackpressureDropShedsWhenQueueFull fills the Drop queue behind a
// gated simulator and checks the accounting: accepted + dropped ==
// offered, with at least one chunk shed and every accepted chunk fed
// after Drain.
func TestBackpressureDropShedsWhenQueueFull(t *testing.T) {
	p := NewPipeline(1)
	sim := &countSim{gate: make(chan struct{})}
	collect := AddSim[uint64](p, "count", sim)
	p.SetBackpressure(BackpressureDrop, 2)

	const chunks, per = 20, 50
	for i := 0; i < chunks; i++ {
		if err := p.Feed(bpChunk(per, uint32(i*4096))); err != nil {
			t.Fatal(err)
		}
	}
	// The drain goroutine is stuck on the gate holding one chunk, the
	// queue holds two more; at least 17 chunks must have been shed.
	if d := p.DroppedRecords(); d < (chunks-3)*per {
		t.Fatalf("dropped %d records, want >= %d", d, (chunks-3)*per)
	}
	close(sim.gate)
	if err := p.Drain(); err != nil {
		t.Fatal(err)
	}
	got, err := collect()
	if err != nil {
		t.Fatal(err)
	}
	if got+p.DroppedRecords() != chunks*per {
		t.Fatalf("accounting broken: fed %d + dropped %d != offered %d", got, p.DroppedRecords(), chunks*per)
	}
	if got != p.RecordsFed() {
		t.Fatalf("RecordsFed() = %d, sim saw %d", p.RecordsFed(), got)
	}
	if got == 0 {
		t.Fatal("drop policy fed nothing at all")
	}
}

// TestBackpressureDropDeliversAllWhenConsumerKeepsUp pins the other
// side: a fast consumer under Drop sees every record (Feed copies the
// chunk, so producer buffer reuse cannot corrupt queued data).
func TestBackpressureDropDeliversAllWhenConsumerKeepsUp(t *testing.T) {
	p := NewPipeline(1)
	sim := &countSim{}
	collect := AddSim[uint64](p, "count", sim)
	p.SetBackpressure(BackpressureDrop, 8)

	// Reuse one buffer across feeds, as HandleSegment does.
	buf := make([]trace.Word, 64)
	var offered uint64
	for i := 0; i < 200; i++ {
		chunk := bpChunk(len(buf), uint32(i*4096))
		copy(buf, chunk)
		if err := p.Feed(buf); err != nil {
			t.Fatal(err)
		}
		offered += uint64(len(buf))
		if i%10 == 0 {
			time.Sleep(time.Millisecond) // let the drain catch up
		}
	}
	if err := p.Drain(); err != nil {
		t.Fatal(err)
	}
	got, err := collect()
	if err != nil {
		t.Fatal(err)
	}
	if got+p.DroppedRecords() != offered {
		t.Fatalf("fed %d + dropped %d != offered %d", got, p.DroppedRecords(), offered)
	}
}

// TestBackpressureDropStickyError: a simulator failure inside the drain
// goroutine must surface from Drain and every collector, same as the
// synchronous path.
func TestBackpressureDropStickyError(t *testing.T) {
	p := NewPipeline(1)
	boom := errors.New("sim exploded")
	sim := &countSim{fail: boom}
	collect := AddSim[uint64](p, "count", sim)
	p.SetBackpressure(BackpressureDrop, 2)
	p.Feed(bpChunk(10, 0))
	if err := p.Drain(); !errors.Is(err, boom) {
		t.Fatalf("Drain() = %v, want %v", err, boom)
	}
	if _, err := collect(); !errors.Is(err, boom) {
		t.Fatalf("collector error = %v, want %v", err, boom)
	}
}

// TestParseBackpressure pins the wire names used by flags and the API.
func TestParseBackpressure(t *testing.T) {
	for in, want := range map[string]Backpressure{"": BackpressureBlock, "block": BackpressureBlock, "drop": BackpressureDrop} {
		got, err := ParseBackpressure(in)
		if err != nil || got != want {
			t.Errorf("ParseBackpressure(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseBackpressure("bogus"); err == nil {
		t.Error("bogus policy accepted")
	}
	if BackpressureBlock.String() != "block" || BackpressureDrop.String() != "drop" {
		t.Error("String() names drifted from the wire names")
	}
}
