package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"
)

// writeSegmented splits recs into n roughly equal segments and writes
// them through a SegmentWriter.
func writeSegmented(t *testing.T, recs []Word, n int, codec uint16, meta string) []byte {
	t.Helper()
	return writeSegmentedEnc(t, recs, n, codec, SegEncRaw, meta)
}

// writeSegmentedEnc is writeSegmented with an explicit per-segment
// payload encoding.
func writeSegmentedEnc(t *testing.T, recs []Word, n int, codec uint16, enc uint8, meta string) []byte {
	t.Helper()
	var buf bytes.Buffer
	sw, err := NewSegmentWriter(&buf, codec, meta)
	if err != nil {
		t.Fatalf("NewSegmentWriter: %v", err)
	}
	if err := sw.SetEncoding(enc); err != nil {
		t.Fatalf("SetEncoding: %v", err)
	}
	per := (len(recs) + n - 1) / n
	for i := 0; i < n; i++ {
		lo := i * per
		hi := lo + per
		if lo > len(recs) {
			lo = len(recs)
		}
		if hi > len(recs) {
			hi = len(recs)
		}
		if _, err := sw.WriteSegment(recs[lo:hi], SegmentInfo{Dropped: uint64(i), DilationCycles: uint64(i) * 1000}); err != nil {
			t.Fatalf("WriteSegment %d: %v", i, err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return buf.Bytes()
}

// scanSegments reads every segment header of b through a Scanner.
func scanSegments(t *testing.T, b []byte) []SegmentInfo {
	t.Helper()
	sc, err := NewScanner(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	var infos []SegmentInfo
	for {
		seg, err := sc.Next()
		if err == io.EOF {
			return infos
		}
		if err != nil {
			t.Fatal(err)
		}
		infos = append(infos, seg.Info)
	}
}

// TestSegmentStitchingDeterminism: the same records written as N
// segments must decode identically to the one-segment stream, for both
// codecs and both payload encodings — the container-level half of the
// stitching guarantee. The compressed lane must be byte-identical to
// the uncompressed one: flate changes what is on disk, never what
// decodes.
func TestSegmentStitchingDeterminism(t *testing.T) {
	recs := makeTrace(5000, 7)
	for _, codec := range []uint16{CodecRaw, CodecDelta} {
		want, wantMeta, err := scanAll(bytes.NewReader(writeSegmented(t, recs, 1, codec, "stitch-test")))
		if err != nil {
			t.Fatalf("one-segment decode: %v", err)
		}
		if !reflect.DeepEqual(want, recs) {
			t.Fatalf("codec %d: one-segment decode differs from the input", codec)
		}
		for _, enc := range []uint8{SegEncRaw, SegEncFlate} {
			for _, n := range []int{1, 3, 8} {
				b := writeSegmentedEnc(t, recs, n, codec, enc, "stitch-test")
				got, meta, err := scanAll(bytes.NewReader(b))
				if err != nil {
					t.Fatalf("codec %d enc %d n=%d: decode: %v", codec, enc, n, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("codec %d enc %d n=%d: %d-segment decode differs from one segment", codec, enc, n, n)
				}
				if meta != wantMeta {
					t.Fatalf("codec %d enc %d n=%d: meta %q != %q", codec, enc, n, meta, wantMeta)
				}
				segs := scanSegments(t, b)
				if len(segs) != n {
					t.Fatalf("codec %d enc %d n=%d: %d segments reported", codec, enc, n, len(segs))
				}
				var total uint64
				compressed := 0
				for i, s := range segs {
					if s.Index != uint32(i) {
						t.Fatalf("segment %d has index %d", i, s.Index)
					}
					if s.Dropped != uint64(i) || s.DilationCycles != uint64(i)*1000 {
						t.Fatalf("segment %d metadata not preserved: %+v", i, s)
					}
					switch s.Encoding {
					case SegEncRaw:
						if s.RawBytes != s.PayloadBytes {
							t.Fatalf("raw segment %d: RawBytes %d != PayloadBytes %d", i, s.RawBytes, s.PayloadBytes)
						}
					case SegEncFlate:
						compressed++
						if s.PayloadBytes >= s.RawBytes {
							t.Fatalf("flate segment %d stored %d bytes for %d raw — writer should have fallen back",
								i, s.PayloadBytes, s.RawBytes)
						}
					default:
						t.Fatalf("segment %d has unexpected encoding %d", i, s.Encoding)
					}
					total += s.Records
				}
				if enc == SegEncRaw && compressed != 0 {
					t.Fatalf("codec %d n=%d: raw-encoded stream reports %d compressed segments", codec, n, compressed)
				}
				if enc == SegEncFlate && compressed == 0 {
					t.Fatalf("codec %d n=%d: no segment actually compressed", codec, n)
				}
				if total != uint64(len(recs)) {
					t.Fatalf("codec %d enc %d n=%d: segment counts sum to %d, want %d", codec, enc, n, total, len(recs))
				}
			}
		}
	}
}

// TestSegmentedArena: File.Arena stitches one chunk per non-empty
// segment, in segment order, holding every record.
func TestSegmentedArena(t *testing.T) {
	recs := makeTrace(3000, 9)
	b := writeSegmented(t, recs, 4, CodecDelta, "")
	f, err := OpenReaderAt(bytes.NewReader(b), int64(len(b)))
	if err != nil {
		t.Fatal(err)
	}
	a, err := f.Arena(1)
	if err != nil {
		t.Fatalf("Arena: %v", err)
	}
	if a.NumRecords() != len(recs) || len(a.chunks) != 4 {
		t.Fatalf("arena has %d records in %d chunks, want %d in 4", a.NumRecords(), len(a.chunks), len(recs))
	}
	if !reflect.DeepEqual(a.Flatten(), recs) {
		t.Fatal("arena records differ from input")
	}
}

// TestSegmentedStreamingDecode: segments scanned one at a time and
// decoded into one reused buffer come back seamless, and the stream
// ends with a clean io.EOF that stays put.
func TestSegmentedStreamingDecode(t *testing.T) {
	recs := makeTrace(1000, 3)
	b := writeSegmented(t, recs, 8, CodecDelta, "")
	sc, err := NewScanner(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	var got, dst []Word
	for {
		seg, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next after %d records: %v", len(got), err)
		}
		if dst, err = DecodeSegment(seg.Codec, seg.Info, seg.Payload, dst, uint64(len(got))); err != nil {
			t.Fatalf("DecodeSegment after %d records: %v", len(got), err)
		}
		got = append(got, dst...)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("streamed %d records, want %d identical", len(got), len(recs))
	}
	// Further reads keep reporting a clean EOF.
	if _, err := sc.Next(); err != io.EOF {
		t.Fatalf("post-EOF Next = %v, want io.EOF", err)
	}
}

// TestSegmentEmptySegments: zero-record segments (a spill racing an
// already-drained buffer) are legal and skipped transparently.
func TestSegmentEmptySegments(t *testing.T) {
	recs := makeTrace(10, 1)
	var buf bytes.Buffer
	sw, err := NewSegmentWriter(&buf, CodecRaw, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range [][]Word{nil, recs[:4], nil, recs[4:], nil} {
		if _, err := sw.WriteSegment(seg, SegmentInfo{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := readAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("got %d records through empty segments, want %d", len(got), len(recs))
	}
}

// TestTruncatedMonolithic: a capture written in one piece — WriteFile's
// one-segment stream — cut mid-payload must fail with a wrapped
// io.ErrUnexpectedEOF — including the boundary cases where the cut
// lands at the payload start or exactly between records.
func TestTruncatedMonolithic(t *testing.T) {
	recs := makeTrace(100, 5)
	for _, codec := range []uint16{CodecRaw, CodecDelta} {
		var buf bytes.Buffer
		if err := WriteFile(&buf, recs, codec); err != nil {
			t.Fatal(err)
		}
		full := buf.Bytes()
		payloadStart := 16 + 4 + segHeaderBytes // stream header, no meta, one segment header
		for _, cut := range []int{payloadStart, payloadStart + 1, payloadStart + RecordBytes, len(full) - 1} {
			if _, err := readAll(bytes.NewReader(full[:cut])); !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("codec %d cut=%d: err = %v, want io.ErrUnexpectedEOF", codec, cut, err)
			}
		}
	}
}

// TestTruncatedErrorNamesRecordIndex: the truncation error must
// identify which record the stream died in.
func TestTruncatedErrorNamesRecordIndex(t *testing.T) {
	recs := makeTrace(100, 5)
	var buf bytes.Buffer
	if err := WriteFile(&buf, recs, CodecRaw); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	payloadStart := len(full) - len(recs)*RecordBytes
	// Cut mid-way through record 3.
	_, err := readAll(bytes.NewReader(full[:payloadStart+3*RecordBytes+2]))
	if err == nil || !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want io.ErrUnexpectedEOF", err)
	}
	if want := "record 3"; !bytes.Contains([]byte(err.Error()), []byte(want)) {
		t.Fatalf("err %q does not name %q", err, want)
	}
}

// TestTruncatedSegmented: cuts inside a segment header, at a record
// boundary inside a payload, and mid-record must all surface
// io.ErrUnexpectedEOF; a cut exactly at the start of a would-be next
// segment is a clean EOF (the container is append-only, so that is a
// complete stream).
func TestTruncatedSegmented(t *testing.T) {
	recs := makeTrace(64, 11)
	b := writeSegmented(t, recs, 2, CodecRaw, "")
	hdrLen := 8 + 8 // segMagic + stream header, no meta
	seg0 := hdrLen + 4 + segHeaderBytes + 32*RecordBytes
	cuts := map[int]bool{ // cut offset -> want clean records up to there
		hdrLen + 2:                                false, // inside segment 0's marker
		hdrLen + 4 + 10:                           false, // inside segment 0's header
		hdrLen + 4 + segHeaderBytes + 12:          false, // mid-record in segment 0
		seg0 + 4 + segHeaderBytes - 1:             false, // inside segment 1's header
		seg0 + 4 + segHeaderBytes + 8*RecordBytes: false, // record boundary, count unmet
	}
	for cut, wantClean := range cuts {
		_, err := readAll(bytes.NewReader(b[:cut]))
		if wantClean {
			if err != nil {
				t.Fatalf("cut=%d: err = %v, want nil", cut, err)
			}
		} else if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut=%d: err = %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
	// Cut exactly at the end of segment 0: a valid, complete stream.
	got, err := readAll(bytes.NewReader(b[:seg0]))
	if err != nil {
		t.Fatalf("clean one-segment prefix: %v", err)
	}
	if !reflect.DeepEqual(got, recs[:32]) {
		t.Fatalf("one-segment prefix decoded %d records, want 32", len(got))
	}
}

// TestSegmentHeaderValidation: corrupt segment headers error rather
// than desync or over-allocate.
func TestSegmentHeaderValidation(t *testing.T) {
	recs := makeTrace(16, 2)
	base := writeSegmented(t, recs, 1, CodecRaw, "")
	hdrLen := 8 + 8
	corrupt := func(mutate func(b []byte)) error {
		b := append([]byte(nil), base...)
		mutate(b)
		_, err := readAll(bytes.NewReader(b))
		return err
	}
	cases := map[string]func(b []byte){
		"bad marker":    func(b []byte) { b[hdrLen] = 'X' },
		"bad index":     func(b []byte) { b[hdrLen+4] = 9 },
		"huge count":    func(b []byte) { b[hdrLen+8+4] = 0xFF; b[hdrLen+8+5] = 0xFF },
		"count too big": func(b []byte) { b[hdrLen+8] = 17 }, // 17 raw records in a 16-record payload
	}
	for name, mutate := range cases {
		if err := corrupt(mutate); err == nil {
			t.Fatalf("%s: accepted", name)
		}
	}
}

// TestSegmentWriterSequenceMarks: a zero Seq takes one past the
// previous mark, an explicit one must exceed it, and readers see the
// marks and CPU the writer stamped.
func TestSegmentWriterSequenceMarks(t *testing.T) {
	recs := makeTrace(8, 3)
	var buf bytes.Buffer
	sw, err := NewSegmentWriter(&buf, CodecDelta, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, stamp := range []SegmentInfo{{}, {CPU: 2, Seq: 5}, {CPU: 2}} {
		if _, err := sw.WriteSegment(recs, stamp); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sw.WriteSegment(recs, SegmentInfo{Seq: 6}); err == nil {
		t.Fatal("repeated sequence mark 6 accepted")
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	var got []SegmentInfo
	for _, s := range scanSegments(t, buf.Bytes()) {
		got = append(got, SegmentInfo{CPU: s.CPU, Seq: s.Seq})
	}
	if want := []SegmentInfo{{Seq: 1}, {CPU: 2, Seq: 5}, {CPU: 2, Seq: 6}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("stamps %+v, want %+v", got, want)
	}
}

// TestSegmentWriterStickyError: a failing sink poisons the writer so a
// capture loop can detect it once and fall back to counted-drop mode.
func TestSegmentWriterStickyError(t *testing.T) {
	recs := makeTrace(32, 4)
	sink := &failAfter{n: 64}
	sw, err := NewSegmentWriter(sink, CodecRaw, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sw.WriteSegment(recs, SegmentInfo{}); err == nil {
		t.Fatal("write into failing sink succeeded")
	}
	if sw.Err() == nil {
		t.Fatal("Err() nil after sink failure")
	}
	if _, err := sw.WriteSegment(recs, SegmentInfo{}); err == nil {
		t.Fatal("sticky error not reported on retry")
	}
	if err := sw.Close(); err == nil {
		t.Fatal("Close did not surface the sink error")
	}
}

type failAfter struct{ n int }

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, fmt.Errorf("sink stalled")
	}
	if len(p) > f.n {
		n := f.n
		f.n = 0
		return n, fmt.Errorf("sink stalled")
	}
	f.n -= len(p)
	return len(p), nil
}
