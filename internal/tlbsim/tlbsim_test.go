package tlbsim

import (
	"math/rand"
	"testing"

	"atum/internal/trace"
)

func base() Config {
	return Config{Entries: 64, Assoc: 2, PIDTags: true, IncludeSystem: true}
}

// simulate feeds recs through one Sim and reports its statistics.
func simulate(recs []trace.Record, cfg Config) (Stats, error) {
	s, err := NewSim(cfg)
	if err != nil {
		return Stats{}, err
	}
	if err := s.Feed(recs); err != nil {
		return Stats{}, err
	}
	return s.Result()
}

func TestValidate(t *testing.T) {
	bad := []Config{
		{},
		{Entries: 48, Assoc: 2}, // non-pow2 entries
		{Entries: 64, Assoc: 3}, // not divisible... 64%3 != 0
		{Entries: 2, Assoc: 2, SplitSystem: true}, // zero sets per half
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %+v should be invalid", cfg)
		}
	}
	if err := base().Validate(); err != nil {
		t.Error(err)
	}
}

func TestHitMiss(t *testing.T) {
	tb, err := New(base())
	if err != nil {
		t.Fatal(err)
	}
	if tb.Access(0x1000, 1) {
		t.Error("cold hit")
	}
	if !tb.Access(0x1004, 1) {
		t.Error("same-page access missed")
	}
	if tb.Access(0x1200, 1) {
		t.Error("next page hit")
	}
	if tb.Stats.Hits != 1 || tb.Stats.Misses != 2 {
		t.Errorf("stats %+v", tb.Stats)
	}
}

func TestPIDTagging(t *testing.T) {
	tb, _ := New(base())
	tb.Access(0x1000, 1)
	if tb.Access(0x1000, 2) {
		t.Error("cross-PID hit with tags")
	}
	// System space is shared across processes.
	tb.Access(0x80001000, 1)
	if !tb.Access(0x80001000, 2) {
		t.Error("system translation not shared")
	}
}

func TestSplitSystemHalves(t *testing.T) {
	cfg := Config{Entries: 8, Assoc: 1, SplitSystem: true, IncludeSystem: true}
	tb, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Process and system pages with identical low vpn bits must not
	// evict each other (separate halves).
	tb.Access(0x1000, 1)
	tb.Access(0x80001000, 1)
	if !tb.Access(0x1000, 1) {
		t.Error("process entry evicted by system fill")
	}
	if !tb.Access(0x80001000, 1) {
		t.Error("system entry evicted by process fill")
	}
}

func TestFlushProcessKeepsSystem(t *testing.T) {
	tb, _ := New(base())
	tb.Access(0x1000, 1)
	tb.Access(0x80001000, 1)
	tb.FlushProcess()
	if tb.Access(0x1000, 1) {
		t.Error("process entry survived flush")
	}
	if !tb.Access(0x80001000, 1) {
		t.Error("system entry lost in process flush")
	}
}

func TestRunTrace(t *testing.T) {
	recs := []trace.Record{
		{Kind: trace.KindIFetch, Addr: 0x200, Width: 4, User: true, PID: 1},
		{Kind: trace.KindIFetch, Addr: 0x204, Width: 4, User: true, PID: 1},
		{Kind: trace.KindDRead, Addr: 0x80000200, Width: 4, User: false, PID: 1},
		{Kind: trace.KindPTERead, Addr: 0x80010000, Width: 4, PID: 1}, // skipped
		{Kind: trace.KindCtxSwitch, Extra: 2, PID: 2, Width: 1},
		{Kind: trace.KindIFetch, Addr: 0x200, Width: 4, User: true, PID: 2},
	}
	cfg := base()
	st, err := simulate(recs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Accesses != 4 {
		t.Errorf("accesses = %d, want 4", st.Accesses)
	}
	// PID-tagged: pid2's 0x200 misses even though pid1 loaded it.
	if st.Misses != 3 {
		t.Errorf("misses = %d, want 3", st.Misses)
	}

	// User-only view drops the kernel reference.
	cfg.IncludeSystem = false
	st2, _ := simulate(recs, cfg)
	if st2.Accesses != 3 {
		t.Errorf("user-only accesses = %d, want 3", st2.Accesses)
	}

	// Flush-on-switch without tags also misses after the switch.
	cfg2 := base()
	cfg2.PIDTags = false
	cfg2.FlushOnSwitch = true
	st3, _ := simulate(recs, cfg2)
	if st3.Flushes != 1 {
		t.Errorf("flushes = %d", st3.Flushes)
	}
	if st3.Misses != 3 {
		t.Errorf("flush-on-switch misses = %d, want 3", st3.Misses)
	}
}

func TestTouchUpdatesStateWithoutCounting(t *testing.T) {
	tb, _ := New(base())
	tb.Touch(0x80001000, 1)
	if tb.Stats.Accesses != 0 || tb.Stats.Misses != 0 {
		t.Errorf("touch counted: %+v", tb.Stats)
	}
	// But the entry is resident: a counted access now hits.
	if !tb.Access(0x80001000, 1) {
		t.Error("touched entry not resident")
	}
}

func TestWalkRefsFedThroughRun(t *testing.T) {
	recs := []trace.Record{
		{Kind: trace.KindPTERead, Addr: 0x80010000, Width: 4, PID: 1},
		{Kind: trace.KindDRead, Addr: 0x80010004, Width: 4, User: false, PID: 1},
	}
	cfg := base()
	cfg.WalkRefs = true
	st, err := simulate(recs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The PTE ref warmed the entry: the data read hits; only it counts.
	if st.Accesses != 1 || st.Hits != 1 {
		t.Errorf("stats: %+v", st)
	}
}

func TestSweepSizesMonotone(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	recs := make([]trace.Record, 40000)
	for i := range recs {
		var addr uint32
		if r.Intn(4) > 0 {
			addr = uint32(r.Intn(128)) << 9 // hot pages
		} else {
			addr = uint32(r.Intn(1<<13)) << 9
		}
		recs[i] = trace.Record{Kind: trace.KindDRead, Addr: addr, Width: 4, User: true, PID: 1}
	}
	base := Config{Entries: 8, Assoc: 8, IncludeSystem: true} // fully assoc at every size
	var prev float64 = 1.1
	for _, n := range []uint32{8, 32, 128, 512} {
		cfg := base
		cfg.Entries = n
		cfg.Assoc = n
		st, err := simulate(recs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		mr := st.MissRate()
		if mr > prev+1e-12 {
			t.Errorf("TB miss rate rose with size %d: %.4f > %.4f", n, mr, prev)
		}
		prev = mr
	}
}
