package sweep

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
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
func streamSegments(t *testing.T, p *Pipeline, recs []trace.Record, nseg int, codec uint16) {
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
		if _, err := sw.WriteSegment(recs[off:end], 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamDeterminism is the headline guarantee: a capture streamed
// segment by segment through the pipeline produces results identical to
// decoding the whole file and replaying it through the batch sweep
// engine — for every simulator kind, across segment counts, both
// codecs, and any worker count. Run under -race this also stress-tests
// the per-chunk simulator fan-out.
func TestStreamDeterminism(t *testing.T) {
	recs := stressTrace(60_000)
	arena := trace.NewArena(recs)
	opts := cache.RunOptions{IncludePTE: true}
	cfgs, hcfg, tcfgs := streamConfigs()
	sdOpts := stackdist.Options{BlockBytes: 16, PIDTag: true, IncludePTE: true}

	batchCache, err := Caches(arena, cfgs, opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	batchHier, err := Hierarchies(arena, []cache.HierarchyConfig{hcfg}, opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	batchTB, err := TBs(arena, tcfgs, 1)
	if err != nil {
		t.Fatal(err)
	}
	batchSD := stackdist.FromSource(arena, sdOpts)

	for _, nseg := range []int{1, 3, 8} {
		for _, codec := range []uint16{trace.CodecRaw, trace.CodecDelta} {
			for _, workers := range []int{1, 8} {
				p := NewPipeline(workers)
				var cacheCollect []func() (cache.Result, error)
				for _, cfg := range cfgs {
					sim, err := cache.NewUnifiedSim(cfg, opts)
					if err != nil {
						t.Fatal(err)
					}
					cacheCollect = append(cacheCollect, AddSim[cache.Result](p, cfg.Name(), sim))
				}
				hsim, err := cache.NewHierarchySim(hcfg, opts)
				if err != nil {
					t.Fatal(err)
				}
				hierCollect := AddSim[cache.HierarchyResult](p, hcfg.Name(), hsim)
				var tbCollect []func() (tlbsim.Stats, error)
				for _, cfg := range tcfgs {
					sim, err := tlbsim.NewSim(cfg)
					if err != nil {
						t.Fatal(err)
					}
					tbCollect = append(tbCollect, AddSim[tlbsim.Stats](p, cfg.Name(), sim))
				}
				sdCollect := AddSim[*stackdist.Profile](p, "mattson", stackdist.NewStream(sdOpts))

				streamSegments(t, p, recs, nseg, codec)

				if err := p.Err(); err != nil {
					t.Fatalf("nseg=%d codec=%d workers=%d: pipeline error: %v", nseg, codec, workers, err)
				}
				if got := p.RecordsFed(); got != uint64(len(recs)) {
					t.Fatalf("nseg=%d codec=%d workers=%d: fed %d records, want %d", nseg, codec, workers, got, len(recs))
				}
				for i, c := range cacheCollect {
					r, err := c()
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(r, batchCache[i]) {
						t.Errorf("nseg=%d codec=%d workers=%d: cache %s: streamed %+v != batch %+v",
							nseg, codec, workers, cfgs[i].Name(), r, batchCache[i])
					}
				}
				hr, err := hierCollect()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(hr, batchHier[0]) {
					t.Errorf("nseg=%d codec=%d workers=%d: hierarchy: streamed %+v != batch %+v",
						nseg, codec, workers, hr, batchHier[0])
				}
				for i, c := range tbCollect {
					st, err := c()
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(st, batchTB[i]) {
						t.Errorf("nseg=%d codec=%d workers=%d: TB %s: streamed %+v != batch %+v",
							nseg, codec, workers, tcfgs[i].Name(), st, batchTB[i])
					}
				}
				prof, err := sdCollect()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(*prof, *batchSD) {
					t.Errorf("nseg=%d codec=%d workers=%d: stack-distance profile differs from batch",
						nseg, codec, workers)
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
	want, err := cache.RunUnified(recs, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r, want) {
		t.Errorf("streamed result %+v != batch %+v", r, want)
	}
}

// TestStreamHelpersMatchBatch pins the push-mode sweep helpers (what
// cachesim -stream and atum-experiments -stream run) against the batch
// engine over the same source.
func TestStreamHelpersMatchBatch(t *testing.T) {
	arena := trace.NewArena(stressTrace(40_000))
	opts := cache.RunOptions{IncludePTE: true}
	cfgs, hcfg, tcfgs := streamConfigs()

	batch, err := Caches(arena, cfgs, opts, 4)
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := StreamCaches(arena, cfgs, opts, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(streamed, batch) {
		t.Error("StreamCaches differs from Caches")
	}

	hbatch, err := Hierarchies(arena, []cache.HierarchyConfig{hcfg}, opts, 4)
	if err != nil {
		t.Fatal(err)
	}
	hstreamed, err := StreamHierarchies(arena, []cache.HierarchyConfig{hcfg}, opts, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(hstreamed, hbatch) {
		t.Error("StreamHierarchies differs from Hierarchies")
	}

	tbatch, err := TBs(arena, tcfgs, 4)
	if err != nil {
		t.Fatal(err)
	}
	tstreamed, err := StreamTBs(arena, tcfgs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tstreamed, tbatch) {
		t.Error("StreamTBs differs from TBs")
	}
}

// TestStreamStickyError checks failure semantics: a truncated segment
// feeds its decoded prefix, fails the pipeline with a record-indexed
// unexpected-EOF, drops everything after, and every collector reports
// the same error.
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
	if _, err := sw.WriteSegment(recs[:500], 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := sw.WriteSegment(recs[500:], 0, 0); err != nil {
		t.Fatal(err)
	}

	p := NewPipeline(1)
	col := &collectSim{}
	collect := AddSim[[]trace.Record](p, "collect", col)

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
}

// collectSim is a pipeline simulator that simply accumulates the records
// it is fed (copying element values, so buffer reuse is safe).
type collectSim struct{ recs []trace.Record }

func (c *collectSim) Feed(chunk []trace.Record) error {
	c.recs = append(c.recs, chunk...)
	return nil
}
func (c *collectSim) Result() ([]trace.Record, error) { return c.recs, nil }

// fuzzRecords converts arbitrary fuzz bytes into canonical records —
// ones both codecs round-trip exactly: memory references carry Width in
// {1,2,4} and Extra 0 (the delta codec does not encode memref Extra),
// markers carry Width 0.
func fuzzRecords(data []byte) []trace.Record {
	var recs []trace.Record
	for len(data) >= 8 {
		b := data[:8]
		data = data[8:]
		r := trace.Record{
			Kind: trace.Kind(b[0] % uint8(trace.NumKinds)),
			Addr: binary.LittleEndian.Uint32(b[4:8]),
			PID:  b[1],
			User: b[2]&1 != 0,
			Phys: b[2]&2 != 0,
		}
		if r.Kind.IsMemRef() {
			r.Width = 1 << (b[3] % 3)
		} else {
			r.Extra = uint16(b[3])
		}
		recs = append(recs, r)
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
			if _, err := sw.WriteSegment(recs[off:end], 0, 0); err != nil {
				t.Fatal(err)
			}
		}
		if len(segs) == 0 {
			if _, err := sw.WriteSegment(nil, 0, 0); err != nil {
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
		AddSim[[]trace.Record](p, "collect", col)
		for _, s := range segs {
			p.HandleSegment(s)
		}
		gotRecs, gotErr := col.recs, p.Err()

		// The pipe path: the equally-truncated file fed through a
		// Scanner, which hands each segment to HandleSegment as the tee
		// did — a re-read from the bytes on disk, not the teed payloads.
		ps := NewPipeline(1)
		scol := &collectSim{}
		AddSim[[]trace.Record](ps, "collect", scol)
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
		var fileRecs []trace.Record
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
