package trace

import (
	"bytes"
	"encoding/binary"
	"os"
	"testing"
)

// FuzzReadFile: arbitrary bytes must parse or error, never panic or
// allocate unboundedly; the Scanner and File agree on every input, and
// whatever they accept the reference decoder reads identically.
func FuzzReadFile(f *testing.F) {
	var good bytes.Buffer
	_ = WriteFile(&good, makeTrace(50, 1), CodecDelta)
	f.Add(good.Bytes())
	var raw bytes.Buffer
	_ = WriteFile(&raw, makeTrace(50, 2), CodecRaw)
	f.Add(raw.Bytes())
	// A header of the retired monolithic container: rejected outright.
	mono, err := os.ReadFile("testdata/monolithic-header.bin")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append(mono, "garbage"...))
	f.Add([]byte{})
	// Segmented container seeds: a valid two-segment stream, plus
	// truncations cutting a segment header and a record in half — the
	// mid-record truncation regression.
	var seg bytes.Buffer
	if sw, err := NewSegmentWriter(&seg, CodecDelta, "fuzz"); err == nil {
		_, _ = sw.WriteSegment(makeTrace(30, 3), SegmentInfo{Dropped: 1, DilationCycles: 100})
		_, _ = sw.WriteSegment(makeTrace(30, 4), SegmentInfo{DilationCycles: 90})
		_ = sw.Close()
	}
	f.Add(seg.Bytes())
	f.Add(seg.Bytes()[:len(seg.Bytes())/2])
	f.Add(seg.Bytes()[:8+8+4+10]) // cut inside the first segment header
	f.Add([]byte("ATUMSEG\x00garbage"))
	var rawOne bytes.Buffer
	_ = WriteFile(&rawOne, makeTrace(10, 5), CodecRaw)
	f.Add(rawOne.Bytes()[:len(rawOne.Bytes())-3]) // mid-record truncation
	// Batch/parallel decode path seeds: a segmented raw stream, a delta
	// stream cut inside a record's address varint, and a segment whose
	// payLen field overruns the stream (records intact).
	var segRaw bytes.Buffer
	if sw, err := NewSegmentWriter(&segRaw, CodecRaw, ""); err == nil {
		_, _ = sw.WriteSegment(makeTrace(20, 6), SegmentInfo{DilationCycles: 10})
		_, _ = sw.WriteSegment(makeTrace(20, 7), SegmentInfo{DilationCycles: 20})
		_ = sw.Close()
	}
	f.Add(segRaw.Bytes())
	f.Add(seg.Bytes()[:len(seg.Bytes())-1]) // cut mid-varint in the last record
	overrun := bytes.Clone(seg.Bytes())
	// payLen sits after magic(8) hdr(8) meta(4) marker(4) index(4)
	// count(8) dropped(8) cycles(8).
	overrun[8+8+4+4+4+8+8+8] ^= 0x40
	f.Add(overrun)
	// Compressed-payload seeds: a compressed two-segment stream, a truncation
	// cutting its deflate payload, and a flipped rawLen byte (the
	// declared-length field the container lint audits).
	var comp bytes.Buffer
	if sw, err := NewSegmentWriter(&comp, CodecDelta, "fuzz"); err == nil {
		_ = sw.SetEncoding(SegEncFlate)
		_, _ = sw.WriteSegment(makeTrace(60, 8), SegmentInfo{DilationCycles: 50})
		_, _ = sw.WriteSegment(makeTrace(60, 9), SegmentInfo{Dropped: 2, DilationCycles: 60})
		_ = sw.Close()
	}
	f.Add(comp.Bytes())
	f.Add(comp.Bytes()[:len(comp.Bytes())*2/3])
	rawLenFlip := bytes.Clone(comp.Bytes())
	// rawLen sits at header offset 37, after magic(8) hdr(8) meta(4)
	// marker(4).
	rawLenFlip[8+8+4+4+37] ^= 0x01
	f.Add(rawLenFlip)
	// A raw segment holding one record of the reserved kind 7: it used
	// to decode and then panic the summary.
	kind7 := bytes.Clone(segRaw.Bytes())
	kind7[len(kind7)-RecordBytes] = 0x07
	f.Add(kind7)
	f.Fuzz(func(t *testing.T, b []byte) {
		recs, err := readAll(bytes.NewReader(b))
		// The random-access pipeline must agree with the scanner on
		// every input: both succeed with identical records, or both fail
		// with the same message.
		fl, ferr := OpenReaderAt(bytes.NewReader(b), int64(len(b)))
		var frecs []Word
		if ferr == nil {
			frecs, ferr = fl.Records(2)
		}
		if (err == nil) != (ferr == nil) {
			t.Fatalf("pipelines disagree: scanner err %v, random-access err %v", err, ferr)
		}
		if err != nil {
			return
		}
		ref, rerr := referenceReadAll(bytes.NewReader(b))
		if rerr != nil {
			t.Fatalf("reference rejects a stream both pipelines accept: %v", rerr)
		}
		if len(frecs) != len(recs) || len(ref) != len(recs) {
			t.Fatalf("random-access decoded %d records, scanner %d, reference %d", len(frecs), len(recs), len(ref))
		}
		for i := range recs {
			if frecs[i] != recs[i] || ref[i] != recs[i] {
				t.Fatalf("record %d: random-access %v, scanner %v, reference %v", i, frecs[i], recs[i], ref[i])
			}
		}
		// A successful parse must round-trip through the raw codec.
		var out bytes.Buffer
		if err := WriteFile(&out, recs, CodecRaw); err != nil {
			t.Fatalf("re-encode of parsed trace failed: %v", err)
		}
		// ... and summarize: atum-stats and serve's summary analysis run
		// SummarizeSource on whatever a parse accepts.
		if s := Summarize(recs); s.Total != uint64(len(recs)) {
			t.Fatalf("summary counts %d records, parse gave %d", s.Total, len(recs))
		}
	})
}

// FuzzCompressedSegmentRoundTrip: record sequences derived from fuzzed
// bytes must survive the compressed container exactly — written with
// the flate encoding, decoded by both pipelines, byte-identical to the
// records that went in — and the segment index must agree with what the
// writer framed.
func FuzzCompressedSegmentRoundTrip(f *testing.F) {
	f.Add(make([]byte, 64), uint8(1))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, uint8(3))
	f.Add([]byte{0x05, 0x02, 0x07, 0x00, 0x00, 0x10, 0x00, 0x80}, uint8(2))
	seed := make([]byte, 41*RecordBytes)
	for i := range seed {
		seed[i] = byte(i * 7)
	}
	f.Add(seed, uint8(5))
	f.Fuzz(func(t *testing.T, b []byte, nseg uint8) {
		b = b[:len(b)-len(b)%RecordBytes]
		recs, err := ParseBuffer(b)
		if err != nil {
			t.Fatalf("aligned buffer rejected: %v", err)
		}
		// Canonicalise to the domain the delta codec preserves (see
		// FuzzDeltaRoundTrip).
		for i, r := range recs {
			recs[i] = deltaDomain(r)
		}
		n := int(nseg%8) + 1
		var buf bytes.Buffer
		sw, err := NewSegmentWriter(&buf, CodecDelta, "fuzz-comp")
		if err != nil {
			t.Fatal(err)
		}
		if err := sw.SetEncoding(SegEncFlate); err != nil {
			t.Fatal(err)
		}
		per := (len(recs) + n - 1) / n
		if per == 0 {
			per = 1
		}
		for lo := 0; lo < len(recs) || lo == 0; lo += per {
			hi := lo + per
			if hi > len(recs) {
				hi = len(recs)
			}
			if _, err := sw.WriteSegment(recs[lo:hi], SegmentInfo{}); err != nil {
				t.Fatalf("WriteSegment: %v", err)
			}
			if lo == 0 && len(recs) == 0 {
				break
			}
		}
		if err := sw.Close(); err != nil {
			t.Fatal(err)
		}
		stream := buf.Bytes()

		back, err := readAll(bytes.NewReader(stream))
		if err != nil {
			t.Fatalf("scanner decode of own output: %v", err)
		}
		fl, err := OpenReaderAt(bytes.NewReader(stream), int64(len(stream)))
		if err != nil {
			t.Fatalf("OpenReaderAt of own output: %v", err)
		}
		fback, err := fl.Records(2)
		if err != nil {
			t.Fatalf("random-access decode of own output: %v", err)
		}
		if len(back) != len(recs) || len(fback) != len(recs) {
			t.Fatalf("round trip length %d/%d != %d", len(back), len(fback), len(recs))
		}
		for i := range recs {
			if back[i] != recs[i] || fback[i] != recs[i] {
				t.Fatalf("record %d: %+v round-tripped to %+v / %+v", i, recs[i], back[i], fback[i])
			}
		}
		for i, info := range fl.Segments() {
			switch info.Encoding {
			case SegEncRaw:
				if info.RawBytes != info.PayloadBytes {
					t.Fatalf("segment %d: raw RawBytes %d != PayloadBytes %d", i, info.RawBytes, info.PayloadBytes)
				}
			case SegEncFlate:
				if info.PayloadBytes >= info.RawBytes {
					t.Fatalf("segment %d: flate stored %d for %d raw bytes", i, info.PayloadBytes, info.RawBytes)
				}
			default:
				t.Fatalf("segment %d: unexpected encoding %d", i, info.Encoding)
			}
		}
	})
}

// deltaDomain maps a parsed record into the domain the delta codec
// preserves: it does not store a memory reference's Extra, and kind 7
// is reserved (it becomes a longword ifetch here).
func deltaDomain(r Word) Word {
	k, width, extra := r.Kind(), r.Width(), r.Extra()
	if k >= NumKinds {
		k, width = KindIFetch, 4
	}
	if k.IsMemRef() {
		extra = 0
	}
	return Pack(k, r.Addr(), width, r.PID(), r.User(), r.Phys(), extra)
}

// FuzzDeltaRoundTrip: every canonical record sequence must survive the
// delta codec encode→decode cycle exactly. Records are derived from the
// fuzzed bytes via the packed format, then canonicalised to the values a
// real capture can produce — the delta format is deliberately lossy
// outside that domain (memref Extra is not stored, and kind 7 is
// reserved).
func FuzzDeltaRoundTrip(f *testing.F) {
	f.Add(make([]byte, 64))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{0x05, 0x02, 0x07, 0x00, 0x00, 0x10, 0x00, 0x80}) // ctx switch, extra
	f.Fuzz(func(t *testing.T, b []byte) {
		b = b[:len(b)-len(b)%RecordBytes]
		recs, err := ParseBuffer(b)
		if err != nil {
			t.Fatalf("aligned buffer rejected: %v", err)
		}
		for i, r := range recs {
			recs[i] = deltaDomain(r)
		}
		var buf bytes.Buffer
		if err := WriteFile(&buf, recs, CodecDelta); err != nil {
			t.Fatalf("delta encode: %v", err)
		}
		back, err := readAll(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("delta decode of own output: %v", err)
		}
		if len(back) != len(recs) {
			t.Fatalf("round trip length %d != %d", len(back), len(recs))
		}
		for i := range recs {
			if back[i] != recs[i] {
				t.Fatalf("record %d: %+v round-tripped to %+v", i, recs[i], back[i])
			}
		}
	})
}

// FuzzParseBuffer: raw trace-buffer images of any content copy out as
// words without panicking — the copy Collector.Extract makes of reserved
// memory — and each word is exactly what the reference decoder reads
// from its bytes field by field.
func FuzzParseBuffer(f *testing.F) {
	f.Add(make([]byte, 64))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, b []byte) {
		b = b[:len(b)-len(b)%RecordBytes]
		recs, err := ParseBuffer(b)
		if err != nil {
			t.Fatalf("aligned buffer rejected: %v", err)
		}
		if len(recs) != len(b)/RecordBytes {
			t.Fatalf("record count %d for %d bytes", len(recs), len(b))
		}
		for i, r := range recs {
			if want := refRawWord(b[i*RecordBytes:]); r != want {
				t.Fatalf("record %d: parsed %#x, reference %#x", i, uint64(r), uint64(want))
			}
		}
	})
}

// FuzzPackedEncoder: each codec's one encoder works from the packed
// layout, and its payload must equal byte for byte what the reference
// field-by-field encoders (reference_test.go) build — for every kind the
// codecs carry, any width (the packed field keeps 2, 4 and 8 and packs
// everything else as 1), markers with stray widths and memory
// references with stray Extra values alike.
func FuzzPackedEncoder(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, 40))
	f.Add([]byte{
		0, 4, 1, 1, 0, 0, 0x00, 0x02, 0, 0, // user ifetch, pid 1
		5, 0, 2, 2, 2, 0, 0x00, 0x10, 0, 0x80, // phys ctxswitch to pid 2
		6, 4, 2, 0, 0xC0, 0, 0xFC, 0xFF, 0xFF, 0xFF, // exception with a width
		2, 3, 2, 3, 7, 7, 0x04, 0x02, 0, 0, // dwrite, odd width, extra set
	})
	f.Fuzz(func(t *testing.T, b []byte) {
		var recs []fields
		var words []Word
		for ; len(b) >= 10; b = b[10:] {
			r := fields{
				kind:  Kind(b[0] % byte(NumKinds)),
				width: b[1],
				pid:   b[2],
				user:  b[3]&1 != 0,
				phys:  b[3]&2 != 0,
				extra: binary.LittleEndian.Uint16(b[4:]),
				addr:  binary.LittleEndian.Uint32(b[6:]),
			}
			recs = append(recs, r)
			words = append(words, r.word())
		}
		packed := wordBytes(words)
		var raw, delta bytes.Buffer
		if err := writeRaw(&raw, recs); err != nil {
			t.Fatal(err)
		}
		if err := writeDelta(&delta, recs); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(packed, raw.Bytes()) {
			t.Fatalf("raw codec: packed payload\n%x\nreference\n%x", packed, raw.Bytes())
		}
		if got := appendDelta(nil, packed); !bytes.Equal(got, delta.Bytes()) {
			t.Fatalf("delta codec: packed encoder\n%x\nreference\n%x", got, delta.Bytes())
		}
	})
}
