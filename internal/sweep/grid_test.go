package sweep

import (
	"bytes"
	"testing"

	"atum/internal/atum"
	"atum/internal/cache"
	"atum/internal/kernel"
	"atum/internal/micro"
	"atum/internal/trace"
	"atum/internal/workload"
)

// gridRecords turns fuzz bytes into a record stream that revisits a
// small address space, so the caches under test hit as well as miss:
// every kind, P0, P1, S0 and physical addresses, several PIDs, context
// switches that change the PID later references carry, and runs of
// references to the previous reference's address.
func gridRecords(data []byte) []trace.Word {
	var recs []trace.Word
	pid := uint8(1)
	var prev trace.Word
	for ; len(data) >= 4; data = data[4:] {
		b := data[:4]
		var kind trace.Kind
		switch k := b[0] % 32; k {
		case 0:
			kind = trace.KindCtxSwitch
		case 1:
			kind = trace.KindException
		default:
			kind = trace.Kind(k % 5) // a memory reference
		}
		if kind == trace.KindCtxSwitch {
			pid = b[1] % 5
			recs = append(recs, trace.Pack(kind, 0, 0, pid, false, false, uint16(pid)))
			continue
		}
		if !kind.IsMemRef() {
			recs = append(recs, trace.Pack(kind, 0, 0, pid, false, false, uint16(b[1])))
			continue
		}
		if b[1]&0x80 != 0 && prev.Kind().IsMemRef() {
			recs = append(recs, trace.Pack(kind, prev.Addr(), 4, pid, prev.User(), prev.Phys(), 0))
			continue
		}
		off := (uint32(b[2]&0x0f)<<8 | uint32(b[3])) << 2
		var addr uint32
		var user, phys bool
		switch b[2] >> 6 {
		case 0:
			addr, user = off, true // P0
		case 1:
			addr, user = 0x7fff_0000|off, true // P1
		case 2:
			addr = 0x8000_0000 | off // S0
		case 3:
			addr, phys = off, true
		}
		r := trace.Pack(kind, addr, 4, pid, user, phys, 0)
		recs = append(recs, r)
		prev = r
	}
	return recs
}

// gridWays are the associativities the fuzzer picks from: powers of two
// up to fully associative caches too deep for a byte-wide dirty
// threshold, plus ways that are not powers of two.
var gridWays = []uint32{1, 2, 3, 4, 6, 8, 16, 32, 256, 300}

// gridConfigs turns fuzz bytes into a config list, 4 bytes a config:
// block sizes 4-64 B, 1-32 sets, every replacement, both write and
// allocation policies, PID tags and flush on switch.
func gridConfigs(data []byte) []cache.Config {
	var cfgs []cache.Config
	for ; len(data) >= 4 && len(cfgs) < 16; data = data[4:] {
		b := data[:4]
		block := uint32(4) << (b[0] % 5)
		ways := gridWays[int(b[1])%len(gridWays)]
		sets := uint32(1) << (b[2] % 6)
		c := cache.Config{
			SizeBytes: sets * ways * block, BlockBytes: block, Assoc: ways,
			WriteAllocate: b[3]&0x0c != 0x0c,
			PIDTags:       b[3]&0x20 != 0,
			FlushOnSwitch: b[3]&0x40 != 0,
		}
		switch b[3] & 3 {
		case 2:
			c.Replacement = cache.FIFO
		case 3:
			c.Replacement = cache.Random
		}
		if b[3]&0x10 != 0 {
			c.WritePolicy = cache.WriteThrough
		}
		cfgs = append(cfgs, c)
	}
	return cfgs
}

// checkCacheGrid runs cfgs over recs through sweep.Caches at workers 1
// and 4 (over an arena cut into chunks of the given sizes) and through a
// pipeline fed the same chunks, and requires every result to equal a
// per-record loop over a bare cache.Cache.
func checkCacheGrid(t *testing.T, recs []trace.Word, cfgs []cache.Config, opts cache.RunOptions, chunkSizes func() int) {
	t.Helper()
	want := make([]cache.Result, len(cfgs))
	for i, c := range cfgs {
		want[i] = refCache(t, recs, c, opts)
	}
	var chunks [][]trace.Word
	for off := 0; off < len(recs); {
		end := min(off+chunkSizes(), len(recs))
		chunks = append(chunks, recs[off:end])
		off = end
	}
	arena := trace.NewArenaFromChunks(chunks)
	compare := func(mode string, got []cache.Result, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: config %d (%s %+v):\n got %+v\nwant %+v", mode, i, cfgs[i].Name(), cfgs[i], got[i].Stats, want[i].Stats)
			}
		}
	}
	for _, workers := range []int{1, 4} {
		got, err := Caches(arena, cfgs, opts, workers)
		compare("sweep.Caches", got, err)

		p := NewPipeline(workers)
		collect, err := AddCaches(p, cfgs, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range chunks {
			p.Feed(c)
		}
		got, err = collect()
		compare("pushed chunks", got, err)
	}
}

// FuzzCacheGrid holds the stack-simulated cache grid (and the fallback
// configs sharing its pipeline) to the per-record Cache oracle over
// random record streams, random config lists and random chunkings, in
// every Stats field: hits, cold misses, write-backs, flushes and
// invalidated lines included.
func FuzzCacheGrid(f *testing.F) {
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
	// Config bytes (see gridConfigs): block 4<<b0, ways gridWays[b1],
	// 1<<b2 sets, then the policy flags.
	const (
		fifo, random, noAlloc, writeThrough, pidTags, flush = 2, 3, 0x0c, 0x10, 0x20, 0x40
	)
	var grid []byte
	for i := range gridWays {
		grid = append(grid, 2, byte(i), byte(i%6), pidTags)
	}
	mixed := []byte{
		2, 0, 5, pidTags, 2, 1, 4, pidTags, 2, 3, 3, pidTags, 2, 5, 3, pidTags, // one class...
		2, 9, 0, pidTags, // ...with a 300-way fully associative member
		2, 0, 3, flush, 2, 1, 3, flush, 2, 3, 3, flush, 2, 3, 2, flush, 2, 8, 0, flush, // a flushing class
		3, 1, 3, pidTags | writeThrough, 3, 2, 2, pidTags | writeThrough, // a write-through class
		2, 3, 2, pidTags | fifo, 2, 3, 2, flush | random, 2, 1, 3, pidTags | noAlloc, // fallbacks
		2, 1, 4, pidTags, // a duplicate member
	}
	f.Add(stream(4000, 1), grid, uint8(1), uint64(1))
	f.Add(stream(8000, 2), mixed, uint8(1), uint64(7))
	f.Add(stream(8000, 3), mixed, uint8(0), uint64(3))
	// Set sampling: opts bits 1-2 pick K, bits 3-4 the offset.
	f.Add(stream(8000, 4), mixed, uint8(1|3<<1|1<<3), uint64(5))
	f.Add(stream(8000, 5), grid, uint8(2<<1|2<<3), uint64(9))

	f.Fuzz(func(t *testing.T, recData, cfgData []byte, optBits uint8, chunkSeed uint64) {
		if len(recData) > 1<<13 {
			recData = recData[:1<<13]
		}
		recs := gridRecords(recData)
		cfgs := gridConfigs(cfgData)
		if len(cfgs) == 0 {
			return
		}
		opts := cache.RunOptions{IncludePTE: optBits&1 != 0}
		if k := []uint32{0, 2, 3, 4}[optBits>>1&3]; k > 1 {
			opts.SampleSets, opts.SampleOffset = k, uint32(optBits>>3&3)%k
		}
		seed := chunkSeed | 1
		chunkSizes := func() int {
			seed ^= seed << 13
			seed ^= seed >> 7
			seed ^= seed << 17
			return 1 + int(seed%uint64(len(recs)/3+1))
		}
		checkCacheGrid(t, recs, cfgs, opts, chunkSizes)
	})
}

// benchGrid is the benchmark's 24-config grid: six sizes by four ways,
// 16-byte PID-tagged write-back blocks, one class of 9 set counts.
func benchGrid() []cache.Config {
	base := cache.Config{
		SizeBytes: 8 << 10, BlockBytes: 16, Assoc: 1,
		Replacement: cache.LRU, WritePolicy: cache.WriteBack,
		WriteAllocate: true, PIDTags: true,
	}
	var cfgs []cache.Config
	for _, sized := range cache.SizeConfigs(base, []uint32{1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10}) {
		cfgs = append(cfgs, cache.AssocConfigs(sized, []uint32{1, 2, 4, 8})...)
	}
	return cfgs
}

// TestCacheGridCapturedMix is the oracle check on real references: the
// benchmark's 24-config grid and its flush-on-switch twin over a
// capture of the 13-process mix.
func TestCacheGridCapturedMix(t *testing.T) {
	recs := captureMix13(t)
	cfgs := benchGrid()
	for _, c := range cfgs[:8] {
		c.PIDTags, c.FlushOnSwitch = false, true
		cfgs = append(cfgs, c)
	}
	if classes, rest := cache.GridClasses(cfgs); len(classes) != 2 || len(rest) != 0 {
		t.Fatalf("grid split into %d classes and %d fallbacks, want 2 and 0", len(classes), len(rest))
	}
	chunk := 0
	checkCacheGrid(t, recs, cfgs, cache.RunOptions{IncludePTE: true}, func() int {
		chunk = chunk%50_000 + 9_973
		return chunk
	})
}

// BenchmarkGridSim times sweep.Caches over the benchmark's 24-config
// grid on one worker. Over the captured 13-process mix most references
// end their walk in the first group. The cyclic lanes loop over 4,096
// and 65,536 blocks, every third reference a write: no reference is
// ever on top of its set in any group, so every reference walks all 9
// groups and misses in each, the walk's worst case.
//
//	go test -run '^$' -bench GridSim -cpu 1 ./internal/sweep/
func BenchmarkGridSim(b *testing.B) {
	cyclic := func(blocks int) []trace.Word {
		recs := make([]trace.Word, 1<<20)
		for i := range recs {
			kind := trace.KindDRead
			if i%3 == 2 {
				kind = trace.KindDWrite
			}
			recs[i] = trace.Pack(kind, uint32(i%blocks)*16, 4, 1, true, false, 0)
		}
		return recs
	}
	lanes := []struct {
		name string
		recs func(testing.TB) []trace.Word
	}{
		{"mix13", captureMix13},
		{"cyclic4096", func(testing.TB) []trace.Word { return cyclic(4096) }},
		{"cyclic65536", func(testing.TB) []trace.Word { return cyclic(65536) }},
	}
	cfgs := benchGrid()
	for _, l := range lanes {
		b.Run(l.name, func(b *testing.B) {
			arena := trace.NewArena(l.recs(b))
			b.ResetTimer()
			for range b.N {
				if _, err := Caches(arena, cfgs, cache.RunOptions{IncludePTE: true}, 1); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(arena.NumRecords())*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrec/s")
		})
	}
}

// captureMix13 captures the 13-process mix on one CPU through the spill
// service, at the benchmark's 100k-cycle timer, and decodes it.
func captureMix13(t testing.TB) []trace.Word {
	t.Helper()
	cfg := kernel.DefaultConfig()
	cfg.Machine.MemSize = 8 << 20
	cfg.Machine.ReservedSize = 512 << 10
	cfg.ICRCycles = 100_000
	sys, err := workload.BootMix(cfg, workload.Mixes["everything"]...)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	svc, err := kernel.StartSpill(sys, &buf, kernel.SpillConfig{
		Options: atum.DefaultOptions(), SegmentBytes: 64 << 10, Codec: trace.CodecDelta,
	})
	if err != nil {
		t.Fatal(err)
	}
	if reason, err := sys.Run(5_000_000); err != nil || reason != micro.StopHalt {
		t.Fatalf("mix stopped (%v, %v) without halting", reason, err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if lost := svc.LostRecords(); lost != 0 {
		t.Fatalf("%d records lost", lost)
	}
	f, err := trace.OpenReaderAt(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := f.Records(1)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}
