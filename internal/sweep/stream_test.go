package sweep

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"reflect"
	"testing"

	"atum/internal/cache"
	"atum/internal/stackdist"
	"atum/internal/tlbsim"
	"atum/internal/trace"
)

// streamConfigs is the simulator mix every streaming test replays: two
// cache sizes, one two-level hierarchy and two translation buffers, all
// small enough to miss constantly on the stress trace.
func streamConfigs() ([]cache.Config, cache.HierarchyConfig, []tlbsim.Config) {
	base := cache.Config{
		Label: "stream", SizeBytes: 4 << 10, BlockBytes: 16, Assoc: 2,
		Replacement: cache.LRU, WritePolicy: cache.WriteBack,
		WriteAllocate: true, PIDTags: true,
	}
	cfgs := cache.SizeConfigs(base, []uint32{4 << 10, 16 << 10})
	flush := base
	flush.PIDTags = false
	flush.FlushOnSwitch = true
	flush.Label = "stream-flush"
	cfgs = append(cfgs, flush)
	hcfg := cache.HierarchyConfig{
		L1: base,
		L2: cache.Config{Label: "l2", SizeBytes: 32 << 10, BlockBytes: 16, Assoc: 4,
			Replacement: cache.LRU, WritePolicy: cache.WriteBack, WriteAllocate: true, PIDTags: true},
	}
	tcfgs := []tlbsim.Config{
		{Entries: 64, Assoc: 2, SplitSystem: true, PIDTags: true, IncludeSystem: true, WalkRefs: true},
		{Entries: 256, Assoc: 2, SplitSystem: true, FlushOnSwitch: true, IncludeSystem: true},
	}
	return cfgs, hcfg, tcfgs
}

// streamSegments writes recs as nseg segments through a SegmentWriter
// whose tee is the pipeline, exactly as the kernel spill service does.
func streamSegments(t *testing.T, p *Pipeline, recs []trace.Word, nseg int, codec uint16) {
	t.Helper()
	var sink bytes.Buffer
	sw, err := trace.NewSegmentWriter(&sink, codec, "stream-test")
	if err != nil {
		t.Fatal(err)
	}
	sw.Tee(p.OnSegment())
	per := (len(recs) + nseg - 1) / nseg
	for off := 0; off < len(recs); off += per {
		end := off + per
		if end > len(recs) {
			end = len(recs)
		}
		if _, err := sw.WriteSegment(recs[off:end], trace.SegmentInfo{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
}

// streamResults is what the streamConfigs mix reports.
type streamResults struct {
	caches []cache.Result
	hier   cache.HierarchyResult
	tbs    []tlbsim.Stats
	prof   stackdist.Profile
}

// addStreamSims registers the streamConfigs mix and a Mattson analysis
// on p and returns their collector.
func addStreamSims(t *testing.T, p *Pipeline, opts cache.RunOptions, sdOpts stackdist.Options) func() streamResults {
	t.Helper()
	cfgs, hcfg, tcfgs := streamConfigs()
	caches, err := AddCaches(p, cfgs, opts)
	if err != nil {
		t.Fatal(err)
	}
	hsim, err := cache.NewHierarchySim(hcfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	hier := AddSim(p, hcfg.Name(), hsim)
	tbs, err := AddSims(p, tcfgs, func(cfg tlbsim.Config) (Sim[tlbsim.Stats], error) {
		return tlbsim.NewSim(cfg)
	})
	if err != nil {
		t.Fatal(err)
	}
	sd := AddSim(p, "mattson", stackdist.NewStream(sdOpts))
	return func() streamResults {
		t.Helper()
		var r streamResults
		var err error
		if r.caches, err = caches(); err != nil {
			t.Fatal(err)
		}
		if r.hier, err = hier(); err != nil {
			t.Fatal(err)
		}
		if r.tbs, err = tbs(); err != nil {
			t.Fatal(err)
		}
		prof, err := sd()
		if err != nil {
			t.Fatal(err)
		}
		r.prof = *prof
		return r
	}
}

// refCache replays recs through a bare cache.Cache one record at a time:
// the simulators' routing, set sampling included, written out
// independently of them.
func refCache(t *testing.T, recs []trace.Word, cfg cache.Config, opts cache.RunOptions) cache.Result {
	t.Helper()
	c, err := cache.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	shift := bits.TrailingZeros32(cfg.BlockBytes)
	for _, r := range recs {
		if opts.SampleSets > 1 && r.Kind().IsMemRef() && (r.Addr()>>shift)%opts.SampleSets != opts.SampleOffset {
			continue
		}
		pid := r.PID()
		if r.Phys() || r.Addr()>>30 == 2 {
			pid = 0 // system and physical space are shared
		}
		switch r.Kind() {
		case trace.KindCtxSwitch:
			if cfg.FlushOnSwitch {
				c.Flush()
			}
		case trace.KindIFetch:
			c.Access(r.Addr(), false, pid)
		case trace.KindDRead, trace.KindDWrite:
			c.Access(r.Addr(), r.Kind() == trace.KindDWrite, pid)
		case trace.KindPTERead, trace.KindPTEWrite:
			if opts.IncludePTE {
				c.Access(r.Addr(), r.Kind() == trace.KindPTEWrite, pid)
			}
		}
	}
	return cache.Result{Config: cfg, Stats: c.Stats}
}

// refTB replays recs through a bare tlbsim.TB one record at a time.
func refTB(t *testing.T, recs []trace.Word, cfg tlbsim.Config) tlbsim.Stats {
	t.Helper()
	tb, err := tlbsim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		switch r.Kind() {
		case trace.KindCtxSwitch:
			if cfg.FlushOnSwitch {
				tb.FlushProcess()
			}
		case trace.KindIFetch, trace.KindDRead, trace.KindDWrite:
			if !r.Phys() && (cfg.IncludeSystem || r.User()) {
				tb.Access(r.Addr(), r.PID())
			}
		case trace.KindPTERead, trace.KindPTEWrite:
			if cfg.WalkRefs && !r.Phys() {
				tb.Touch(r.Addr(), r.PID())
			}
		}
	}
	return tb.Stats
}

// TestStreamDeterminism is the headline guarantee: the engine's two loop
// orders — FeedSource replaying a materialised source per simulator, and
// a capture pushed segment by segment and fanned out per chunk — produce
// results identical to a per-record reference loop, for every simulator
// kind, across segment counts, both codecs, worker counts, and with and
// without the user-only filter. The caches and TBs are checked against
// bare cache.Cache / tlbsim.TB loops written above, the hierarchy
// against its Sim fed the whole trace at once, and the Mattson stream
// against FromSource over the whole trace. Run under -race this also
// stress-tests both fan-outs.
func TestStreamDeterminism(t *testing.T) {
	recs := stressTrace(60_000)
	var chunks [][]trace.Word
	for off := 0; off < len(recs); off += 7_000 {
		chunks = append(chunks, recs[off:min(off+7_000, len(recs))])
	}
	arena := trace.NewArenaFromChunks(chunks)
	opts := cache.RunOptions{IncludePTE: true}
	cfgs, hcfg, tcfgs := streamConfigs()
	sdOpts := stackdist.Options{BlockBytes: 16, PIDTag: true, IncludePTE: true}

	for _, userOnly := range []bool{false, true} {
		src, in := arena, recs
		if userOnly {
			src, in = arena.FilterUser(), trace.FilterUser(recs)
		}
		var want streamResults
		for _, cfg := range cfgs {
			want.caches = append(want.caches, refCache(t, in, cfg, opts))
		}
		hsim, err := cache.NewHierarchySim(hcfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := hsim.Feed(in); err != nil {
			t.Fatal(err)
		}
		if want.hier, err = hsim.Result(); err != nil {
			t.Fatal(err)
		}
		for _, cfg := range tcfgs {
			want.tbs = append(want.tbs, refTB(t, in, cfg))
		}
		want.prof = *stackdist.FromSource(trace.NewArena(in), sdOpts)

		for _, workers := range []int{1, 4} {
			run := func(mode string, feed func(*Pipeline)) {
				t.Helper()
				p := NewPipeline(workers)
				collect := addStreamSims(t, p, opts, sdOpts)
				feed(p)
				if err := p.Err(); err != nil {
					t.Fatalf("user-only=%v workers=%d %s: pipeline error: %v", userOnly, workers, mode, err)
				}
				if got := p.RecordsFed(); got != uint64(len(in)) {
					t.Errorf("user-only=%v workers=%d %s: fed %d records, want %d", userOnly, workers, mode, got, len(in))
				}
				if got := collect(); !reflect.DeepEqual(got, want) {
					t.Errorf("user-only=%v workers=%d %s: results differ from the per-record reference:\n got %+v\nwant %+v",
						userOnly, workers, mode, got, want)
				}
			}
			run("per-simulator replay", func(p *Pipeline) { p.FeedSource(src) })
			if userOnly {
				// A filter turns FeedSource into a per-chunk push.
				run("filtered replay", func(p *Pipeline) {
					p.SetFilter(trace.UserRecord)
					p.FeedSource(arena)
				})
			}
			for _, nseg := range []int{1, 3, 8} {
				for _, codec := range []uint16{trace.CodecRaw, trace.CodecDelta} {
					run(fmt.Sprintf("segments nseg=%d codec=%d", nseg, codec), func(p *Pipeline) {
						if userOnly {
							p.SetFilter(trace.UserRecord)
						}
						streamSegments(t, p, recs, nseg, codec)
					})
				}
			}
		}
	}
}

// TestStreamBoundedMemory pins the pipeline's memory bound: however many
// segments stream through, the decode buffer's capacity tracks the
// largest single segment, never the stream. With the raw codec the
// decode allocation is exactly the segment's record count, so the bound
// is tight.
func TestStreamBoundedMemory(t *testing.T) {
	const perSeg = 10_000
	const nseg = 8
	recs := stressTrace(perSeg * nseg)
	opts := cache.RunOptions{IncludePTE: true}
	cfg := cache.Config{
		Label: "bounded", SizeBytes: 4 << 10, BlockBytes: 16, Assoc: 2,
		Replacement: cache.LRU, WritePolicy: cache.WriteBack,
		WriteAllocate: true, PIDTags: true,
	}
	p := NewPipeline(1)
	sim, err := cache.NewUnifiedSim(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	collect := AddSim[cache.Result](p, cfg.Name(), sim)

	streamSegments(t, p, recs, nseg, trace.CodecRaw)

	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	if cap(p.buf) == 0 {
		t.Fatal("pipeline never allocated a decode buffer")
	}
	if cap(p.buf) > perSeg {
		t.Errorf("decode buffer capacity %d exceeds one segment (%d records): memory not bounded", cap(p.buf), perSeg)
	}
	if got := p.RecordsFed(); got != uint64(len(recs)) {
		t.Errorf("fed %d records, want %d", got, len(recs))
	}
	r, err := collect()
	if err != nil {
		t.Fatal(err)
	}
	if want := refCache(t, recs, cfg, opts); !reflect.DeepEqual(r, want) {
		t.Errorf("streamed result %+v != per-record reference %+v", r, want)
	}
}

// TestStreamStickyError checks failure semantics: a truncated segment
// feeds its decoded prefix, fails the pipeline with a record-indexed
// unexpected-EOF, drops everything after, and every collector reports
// the same error; a simulator failing under FeedSource does the same.
func TestStreamStickyError(t *testing.T) {
	recs := stressTrace(1_000)
	var segs []trace.StreamSegment
	var sink bytes.Buffer
	sw, err := trace.NewSegmentWriter(&sink, trace.CodecDelta, "")
	if err != nil {
		t.Fatal(err)
	}
	sw.Tee(func(s trace.StreamSegment) {
		segs = append(segs, trace.StreamSegment{
			Codec:   s.Codec,
			Info:    s.Info,
			Payload: append([]byte(nil), s.Payload...),
		})
	})
	if _, err := sw.WriteSegment(recs[:500], trace.SegmentInfo{}); err != nil {
		t.Fatal(err)
	}
	if _, err := sw.WriteSegment(recs[500:], trace.SegmentInfo{}); err != nil {
		t.Fatal(err)
	}

	p := NewPipeline(1)
	col := &collectSim{}
	collect := AddSim[[]trace.Word](p, "collect", col)

	if err := p.HandleSegment(segs[0]); err != nil {
		t.Fatal(err)
	}
	// Cut the second segment's payload mid-stream.
	segs[1].Payload = segs[1].Payload[:len(segs[1].Payload)/2]
	err = p.HandleSegment(segs[1])
	if err == nil {
		t.Fatal("truncated segment: no error")
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated segment: error %v, want unexpected EOF", err)
	}
	if len(col.recs) <= 500 || len(col.recs) >= 1_000 {
		t.Errorf("decoded prefix fed %d records, want a strict prefix past segment 0", len(col.recs))
	}
	// Later input is dropped; the collector reports the sticky error.
	if ferr := p.Feed(recs[:10]); !errors.Is(ferr, io.ErrUnexpectedEOF) {
		t.Errorf("post-error Feed returned %v, want the sticky error", ferr)
	}
	if _, cerr := collect(); !errors.Is(cerr, io.ErrUnexpectedEOF) {
		t.Errorf("collector returned %v, want the sticky error", cerr)
	}

	// FeedSource's per-simulator replay fails the same way: a failing
	// simulator's error is sticky and every collector reports it.
	boom := errors.New("sim exploded")
	for _, workers := range []int{1, 4} {
		p := NewPipeline(workers)
		healthy := AddSim[uint64](p, "healthy", &countSim{})
		AddSim[uint64](p, "boom", &countSim{fail: boom})
		if err := p.FeedSource(trace.NewArena(recs)); !errors.Is(err, boom) {
			t.Errorf("workers=%d: FeedSource returned %v, want %v", workers, err, boom)
		}
		if _, err := healthy(); !errors.Is(err, boom) {
			t.Errorf("workers=%d: healthy collector returned %v, want the sticky error", workers, err)
		}
	}
}

// collectSim is a pipeline simulator that simply accumulates the records
// it is fed (copying element values, so buffer reuse is safe).
type collectSim struct{ recs []trace.Word }

func (c *collectSim) Feed(chunk []trace.Word) error {
	c.recs = append(c.recs, chunk...)
	return nil
}
func (c *collectSim) Result() ([]trace.Word, error) { return c.recs, nil }

// fuzzRecords converts arbitrary fuzz bytes into canonical records —
// ones both codecs round-trip exactly: memory references carry Width in
// {1,2,4} and Extra 0 (the delta codec does not encode memref Extra),
// markers carry Width 0.
func fuzzRecords(data []byte) []trace.Word {
	var recs []trace.Word
	for len(data) >= 8 {
		b := data[:8]
		data = data[8:]
		kind := trace.Kind(b[0] % uint8(trace.NumKinds))
		var width uint8
		var extra uint16
		if kind.IsMemRef() {
			width = 1 << (b[3] % 3)
		} else {
			extra = uint16(b[3])
		}
		recs = append(recs, trace.Pack(kind, binary.LittleEndian.Uint32(b[4:8]), width, b[1], b[2]&1 != 0, b[2]&2 != 0, extra))
	}
	return recs
}

// FuzzStreamSegmentFeed is the no-third-behavior guarantee: for any
// record stream, segmentation, codec, and truncation of the final
// segment's payload, the streamed pipeline must observe exactly the
// records a Scanner reads from the equally-truncated file, and fail
// (when it fails) with the identical record-indexed unexpected-EOF
// error that File reports too. A clean stream delivers exactly the
// records written. There is no third outcome — no divergent records,
// no different error, no silent success on a short payload.
func FuzzStreamSegmentFeed(f *testing.F) {
	mk := func(n int) []byte {
		b := make([]byte, n*8)
		for i := range b {
			b[i] = byte(i*7 + 3)
		}
		return b
	}
	f.Add([]byte{}, uint8(0), false, uint16(0))
	f.Add(mk(4), uint8(0), false, uint16(5))  // raw, one segment, mid-record cut
	f.Add(mk(12), uint8(2), true, uint16(3))  // delta, 3 segments, small cut
	f.Add(mk(12), uint8(2), true, uint16(1))  // delta, likely mid-varint cut
	f.Add(mk(3), uint8(6), false, uint16(0))  // more segments than records
	f.Add(mk(9), uint8(1), true, uint16(999)) // cut wraps modulo payload

	f.Fuzz(func(t *testing.T, data []byte, nseg uint8, useDelta bool, trunc uint16) {
		if len(data) > 1<<14 {
			data = data[:1<<14]
		}
		recs := fuzzRecords(data)
		codec := uint16(trace.CodecRaw)
		if useDelta {
			codec = trace.CodecDelta
		}
		n := 1 + int(nseg%8)

		// Write the full segmented stream, capturing each segment (payload
		// copied — the writer reuses its encode buffer).
		var segs []trace.StreamSegment
		var stream bytes.Buffer
		sw, err := trace.NewSegmentWriter(&stream, codec, "")
		if err != nil {
			t.Fatal(err)
		}
		sw.Tee(func(s trace.StreamSegment) {
			segs = append(segs, trace.StreamSegment{
				Codec:   s.Codec,
				Info:    s.Info,
				Payload: append([]byte(nil), s.Payload...),
			})
		})
		per := (len(recs) + n - 1) / n
		if per == 0 {
			per = 1
		}
		for off := 0; off < len(recs); off += per {
			end := off + per
			if end > len(recs) {
				end = len(recs)
			}
			if _, err := sw.WriteSegment(recs[off:end], trace.SegmentInfo{}); err != nil {
				t.Fatal(err)
			}
		}
		if len(segs) == 0 {
			if _, err := sw.WriteSegment(nil, trace.SegmentInfo{}); err != nil {
				t.Fatal(err)
			}
		}
		if err := sw.Close(); err != nil {
			t.Fatal(err)
		}

		// Truncate the final segment's payload (the file's tail), leaving
		// every header intact — the shape a capture killed mid-spill leaves
		// behind.
		last := &segs[len(segs)-1]
		cut := int(trunc) % (len(last.Payload) + 1)
		last.Payload = last.Payload[:len(last.Payload)-cut]
		fileBytes := stream.Bytes()[:stream.Len()-cut]

		// Streamed side: every segment through the pipeline.
		p := NewPipeline(1)
		col := &collectSim{}
		AddSim[[]trace.Word](p, "collect", col)
		for _, s := range segs {
			p.HandleSegment(s)
		}
		gotRecs, gotErr := col.recs, p.Err()

		// The pipe path: the equally-truncated file fed through a
		// Scanner, which hands each segment to HandleSegment as the tee
		// did — a re-read from the bytes on disk, not the teed payloads.
		ps := NewPipeline(1)
		scol := &collectSim{}
		AddSim[[]trace.Word](ps, "collect", scol)
		ps.FeedStream(bytes.NewReader(fileBytes))
		wantRecs, wantErr := scol.recs, ps.Err()

		if len(gotRecs) != len(wantRecs) {
			t.Fatalf("streamed %d records, scanned %d (cut=%d, nseg=%d, codec=%d)",
				len(gotRecs), len(wantRecs), cut, n, codec)
		}
		for i := range gotRecs {
			if gotRecs[i] != wantRecs[i] {
				t.Fatalf("record %d: streamed %v != scanned %v", i, gotRecs[i], wantRecs[i])
			}
		}

		// Random access over the same bytes: same verdict, same message.
		var fileErr error
		var fileRecs []trace.Word
		if fl, err := trace.OpenReaderAt(bytes.NewReader(fileBytes), int64(len(fileBytes))); err != nil {
			fileErr = err
		} else {
			fileRecs, fileErr = fl.Records(1)
		}

		switch {
		case gotErr == nil && wantErr == nil && fileErr == nil:
			// Clean agreement, and the records are the ones written.
			if len(gotRecs) != len(recs) || len(fileRecs) != len(recs) {
				t.Fatalf("clean decode of %d/%d records, wrote %d", len(gotRecs), len(fileRecs), len(recs))
			}
			for i := range recs {
				if gotRecs[i] != recs[i] || fileRecs[i] != recs[i] {
					t.Fatalf("record %d: streamed %v, file %v, written %v", i, gotRecs[i], fileRecs[i], recs[i])
				}
			}
		case gotErr == nil || wantErr == nil || fileErr == nil:
			t.Fatalf("error mismatch: streamed %v, scanned %v, file %v", gotErr, wantErr, fileErr)
		default:
			if gotErr.Error() != wantErr.Error() || gotErr.Error() != fileErr.Error() {
				t.Fatalf("error text mismatch: streamed %q, scanned %q, file %q", gotErr, wantErr, fileErr)
			}
			if !errors.Is(gotErr, io.ErrUnexpectedEOF) {
				t.Fatalf("streamed error %v does not wrap io.ErrUnexpectedEOF", gotErr)
			}
		}
	})
}
