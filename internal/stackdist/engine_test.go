package stackdist

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"atum/internal/atum"
	"atum/internal/kernel"
	"atum/internal/micro"
	"atum/internal/trace"
	"atum/internal/workload"
)

// oracle is the reference the engine is held to: an explicit LRU list,
// most recent first, searched linearly on every reference.
func oracle(blocks []uint64) *Profile {
	p := &Profile{}
	var stack []uint64
	for _, b := range blocks {
		p.Total++
		d := slices.Index(stack, b)
		if d < 0 {
			p.Cold++
			stack = append(stack, 0)
			d = len(stack) - 1
		} else {
			for len(p.Depths) <= d {
				p.Depths = append(p.Depths, 0)
			}
			p.Depths[d]++
		}
		copy(stack[1:d+1], stack[:d])
		stack[0] = b
	}
	return p
}

// run feeds blocks to an engine with the given initial capacities.
func run(blocks []uint64, tableSlots, treeCap int) *engine {
	e := newEngine(tableSlots, treeCap)
	for _, b := range blocks {
		e.add(b)
	}
	return &e
}

// mapBlocks is the block stream Stream derives from recs.
func mapBlocks(recs []trace.Word, opts Options) []uint64 {
	m := newBlockMapper(opts)
	var out []uint64
	for _, r := range recs {
		if b, ok := m.block(r); ok {
			out = append(out, b)
		}
	}
	return out
}

// checkOracle fails t unless got is the oracle's profile.
func checkOracle(t *testing.T, what string, got, want *Profile) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: profile differs from the oracle (total %d/%d, cold %d/%d, max depth %d/%d)",
			what, got.Total, want.Total, got.Cold, want.Cold, got.MaxDepth(), want.MaxDepth())
	}
}

// incBlocks builds a block stream with heavy reuse plus a cold tail, so
// reuses in the top, reuses below it and first references all cross
// table grows and compactions.
func incBlocks(n int) []uint64 {
	blocks := make([]uint64, 0, n)
	seed := uint64(0x853C49E6748FEA9B)
	for len(blocks) < n {
		seed = seed*6364136223846793005 + 1442695040888963407
		r := seed >> 33
		switch r % 8 {
		case 0, 1, 2, 3:
			blocks = append(blocks, r%64) // hot set
		case 4, 5:
			blocks = append(blocks, 1000+r%4096) // warm set
		default:
			blocks = append(blocks, 1<<20|r%(1<<18)) // mostly cold
		}
	}
	return blocks
}

// TestEngineMatchesOracle: the engine's profile equals the explicit LRU
// list's. Tiny initial capacities make the table grow (refreshing the
// top's slots and the index array) and the tree compact many times, so
// the equivalence covers those paths, not just the steady state.
func TestEngineMatchesOracle(t *testing.T) {
	blocks := incBlocks(30_000)
	want := oracle(blocks)
	for _, c := range [][2]int{{1, 1}, {2, 2}, {16, 8}, {defaultTableSlots, defaultTreeCap}} {
		e := run(blocks, c[0], c[1])
		checkOracle(t, fmt.Sprintf("table %d, tree %d", c[0], c[1]), &e.p, want)
		if c[0] == defaultTableSlots {
			continue
		}
		// Every top miss after the first topDepth pushes a block out; an
		// index capacity below that count means marks were renumbered.
		fallOffs := int(want.Cold) - topDepth
		for _, n := range want.Depths[topDepth:] {
			fallOffs += int(n)
		}
		if len(e.tab) == c[0] || len(e.idx)-1 >= fallOffs {
			t.Errorf("table %d, tree %d: ended at table %d, tree %d after %d fall-offs: growth or renumbering never ran",
				c[0], c[1], len(e.tab), len(e.idx)-1, fallOffs)
		}
	}
}

// testRecords builds a record stream over a few processes: user and
// kernel fetches, reads and writes, PTE reads, physical references and
// context switches.
func testRecords(n int) []trace.Word {
	recs := make([]trace.Word, 0, n)
	seed := uint32(0xB5297A4D)
	pid := uint8(1)
	for len(recs) < n {
		seed = seed*1664525 + 1013904223
		r := seed
		if r%128 == 0 {
			pid = uint8(1 + r%3)
			recs = append(recs, trace.Pack(trace.KindCtxSwitch, 0, 0, pid, false, false, uint16(pid)))
			continue
		}
		kind, addr, user, phys := trace.KindIFetch, uint32(0), r%4 != 0, false
		switch r % 8 {
		case 0:
			kind = trace.KindPTERead
			addr = 0x8000_8000 | (r % 512 * 4)
			user = false
		case 1, 2:
			kind = trace.KindIFetch
			addr = 0x0001_0000 | uint32(pid)<<12 | (r % 2048 * 4)
		case 3:
			kind = trace.KindDWrite
			addr = uint32(pid)<<16 | (r % 4096 * 4)
			phys = r%32 == 3
		default:
			kind = trace.KindDRead
			addr = uint32(pid)<<16 | (r % 4096 * 4)
		}
		recs = append(recs, trace.Pack(kind, addr, 4, pid, user, phys, 0))
	}
	return recs
}

// streamOpts are the option combinations the experiments use.
var streamOpts = []Options{
	{BlockBytes: 16, PIDTag: true, IncludePTE: true},
	{BlockBytes: 64, PIDTag: false, IncludePTE: false},
	{BlockBytes: 16, PIDTag: true, UserOnly: true},
}

// feedChunks feeds recs to s in chunks of the given size.
func feedChunks(t *testing.T, s *Stream, recs []trace.Word, chunk int) {
	t.Helper()
	for off := 0; off < len(recs); off += chunk {
		if err := s.Feed(recs[off:min(off+chunk, len(recs))]); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStreamMatchesOracle: the record-fed Stream, at tiny initial
// capacities and however its records are sliced into chunks, equals the
// oracle over the blocks its records map to.
func TestStreamMatchesOracle(t *testing.T) {
	recs := testRecords(10_000)
	for _, opts := range streamOpts {
		want := oracle(mapBlocks(recs, opts))
		for _, chunk := range []int{1, 7, 1024} {
			s := &Stream{bm: newBlockMapper(opts), e: newEngine(2, 2)}
			feedChunks(t, s, recs, chunk)
			got, err := s.Result()
			if err != nil {
				t.Fatal(err)
			}
			checkOracle(t, fmt.Sprintf("opts %+v, chunk %d", opts, chunk), got, want)
		}
	}
}

// TestStreamMatchesFromSource: the record-fed Stream equals FromSource
// over the same records, for the option combinations the experiments
// use.
func TestStreamMatchesFromSource(t *testing.T) {
	recs := testRecords(20_000)
	for _, opts := range streamOpts {
		want := FromSource(trace.NewArena(recs), opts)
		s := NewStream(opts)
		feedChunks(t, s, recs, 777)
		got, err := s.Result()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("opts=%+v: streamed profile differs from FromSource", opts)
		}
	}
}

// fuzzBlocks turns fuzz bytes into a block stream, two bytes a
// reference: a hot set of 8 blocks (block 0 among them) reused in the
// top, a mid set of 256 reused mostly below it, first references, and
// keys at the top of the uint64 range.
func fuzzBlocks(data []byte) []uint64 {
	var out []uint64
	cold := uint64(1 << 40)
	for ; len(data) >= 2; data = data[2:] {
		switch v := uint64(data[1]); data[0] % 4 {
		case 0:
			out = append(out, v%8)
		case 1:
			out = append(out, 1000+v)
		case 2:
			cold++
			out = append(out, cold)
		default:
			out = append(out, ^v)
		}
	}
	return out
}

// FuzzStackdist holds the engine to the oracle over fuzzed block
// streams and initial capacities.
func FuzzStackdist(f *testing.F) {
	stream := func(n int, seed uint32) []byte {
		b := make([]byte, n)
		for i := range b {
			seed ^= seed << 13
			seed ^= seed >> 17
			seed ^= seed << 5
			b[i] = byte(seed)
		}
		return b
	}
	f.Add([]byte{}, uint8(0))
	f.Add(make([]byte, 64), uint8(0)) // block 0, repeated
	f.Add(stream(4000, 1), uint8(0))
	f.Add(stream(4000, 2), uint8(3<<3|1))
	f.Add(stream(8000, 3), uint8(7<<3|7))
	f.Fuzz(func(t *testing.T, data []byte, caps uint8) {
		if len(data) > 1<<14 {
			data = data[:1<<14]
		}
		blocks := fuzzBlocks(data)
		table, tree := 1<<(caps&7), 1<<(caps>>3&7)
		checkOracle(t, fmt.Sprintf("table %d, tree %d", table, tree), &run(blocks, table, tree).p, oracle(blocks))
	})
}

var mix13 struct {
	once sync.Once
	recs []trace.Word
	err  error
}

// captureMix13 captures the 13-process mix perfbench sweeps, at its
// 100k-cycle timer, once per test binary.
func captureMix13(tb testing.TB) []trace.Word {
	tb.Helper()
	mix13.once.Do(func() {
		cfg := kernel.DefaultConfig()
		cfg.Machine.MemSize = 8 << 20
		cfg.Machine.ReservedSize = 512 << 10
		cfg.ICRCycles = 100_000
		sys, err := workload.BootMix(cfg, workload.Mixes["everything"]...)
		if err != nil {
			mix13.err = err
			return
		}
		c, err := atum.Run(sys.M, atum.DefaultOptions(), func() error {
			reason, err := sys.Run(5_000_000)
			if err == nil && reason != micro.StopHalt {
				err = fmt.Errorf("mix stopped (%v) without halting", reason)
			}
			return err
		})
		if err != nil {
			mix13.err = err
			return
		}
		mix13.recs = c.All()
	})
	if mix13.err != nil {
		tb.Fatal(mix13.err)
	}
	return mix13.recs
}

// mixOpts is the conversion perfbench's sweep runs.
var mixOpts = Options{BlockBytes: 16, PIDTag: true, IncludePTE: true}

// TestStackdistCapturedMix is the oracle check on real references.
func TestStackdistCapturedMix(t *testing.T) {
	recs := captureMix13(t)
	checkOracle(t, "captured mix", FromSource(trace.NewArena(recs), mixOpts), oracle(mapBlocks(recs, mixOpts)))
}

// repeated is a Source that replays recs n times.
type repeated struct {
	recs []trace.Word
	n    int
}

func (r repeated) NumRecords() int { return r.n * len(r.recs) }

func (r repeated) EachChunk(fn func([]trace.Word) error) error {
	for i := 0; i < r.n; i++ {
		if err := fn(r.recs); err != nil {
			return err
		}
	}
	return nil
}

// TestStackdistMemoryBounded: memory follows the distinct blocks, not
// the stream's length. The captured mix fed 8 times over has the same
// blocks as one pass, so it may allocate at most 1.25 times as much;
// compaction must reuse the tree and index arrays.
func TestStackdistMemoryBounded(t *testing.T) {
	recs := captureMix13(t)
	refs := uint64(len(mapBlocks(recs, mixOpts)))
	alloc := func(n int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p := FromSource(repeated{recs, n}, mixOpts)
		runtime.ReadMemStats(&after)
		if p.Total != uint64(n)*refs {
			t.Fatalf("%dx: %d references analysed, want %d", n, p.Total, uint64(n)*refs)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	one, eight := alloc(1), alloc(8)
	t.Logf("allocated %d B for one pass, %d B for eight", one, eight)
	if eight*4 > one*5 {
		t.Errorf("eight passes allocated %d B, one pass %d B: more than 1.25x", eight, one)
	}
}
