package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// decodeStreaming runs the full sequential pipeline (Scanner +
// DecodeSegment) and returns its outcome; the random-access pipeline
// must match it bit for bit, error strings included.
func decodeStreaming(b []byte) ([]Word, error) { return readAll(bytes.NewReader(b)) }

// decodeRandomAccess runs the full random-access pipeline (OpenReaderAt
// + parallel Arena + Flatten).
func decodeRandomAccess(b []byte, workers int) ([]Word, error) {
	f, err := OpenReaderAt(bytes.NewReader(b), int64(len(b)))
	if err != nil {
		return nil, err
	}
	return f.Records(workers)
}

// TestOpenReaderAtMatchesOpen: the same stream served through the
// sequential Scanner and through io.ReaderAt must yield identical
// records, metadata and segment index — and the records the reference
// decoder reads — for both codecs, one segment or several.
func TestOpenReaderAtMatchesOpen(t *testing.T) {
	recs := makeTrace(4000, 11)
	for _, codec := range []uint16{CodecRaw, CodecDelta} {
		streams := map[string][]byte{
			"one segment":   writeSegmented(t, recs, 1, codec, "readerat-test"),
			"five segments": writeSegmented(t, recs, 5, codec, "readerat-test"),
		}
		for name, b := range streams {
			sc, err := NewScanner(bytes.NewReader(b))
			if err != nil {
				t.Fatalf("codec %d %s: NewScanner: %v", codec, name, err)
			}
			var want []Word
			var segs []SegmentInfo
			for {
				seg, err := sc.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatalf("codec %d %s: Next: %v", codec, name, err)
				}
				if seg.Codec != codec {
					t.Fatalf("codec %d %s: scanned segment carries codec %d", codec, name, seg.Codec)
				}
				out, err := DecodeSegment(seg.Codec, seg.Info, seg.Payload, nil, uint64(len(want)))
				if err != nil {
					t.Fatalf("codec %d %s: DecodeSegment: %v", codec, name, err)
				}
				want = append(want, out...)
				segs = append(segs, seg.Info)
			}
			f, err := OpenReaderAt(bytes.NewReader(b), int64(len(b)))
			if err != nil {
				t.Fatalf("codec %d %s: OpenReaderAt: %v", codec, name, err)
			}
			if f.Meta() != sc.Meta() || f.Codec() != codec {
				t.Errorf("codec %d %s: meta %q codec %d, scanner meta %q", codec, name, f.Meta(), f.Codec(), sc.Meta())
			}
			if f.NumRecords() != uint64(len(want)) {
				t.Errorf("codec %d %s: NumRecords %d, want %d", codec, name, f.NumRecords(), len(want))
			}
			if !reflect.DeepEqual(f.Segments(), segs) {
				t.Fatalf("codec %d %s: segment index %+v vs scanned %+v", codec, name, f.Segments(), segs)
			}
			got, err := f.Records(4)
			if err != nil {
				t.Fatalf("codec %d %s: File.Records: %v", codec, name, err)
			}
			compareRecords(t, got, want)
			ref, err := referenceReadAll(bytes.NewReader(b))
			if err != nil {
				t.Fatalf("codec %d %s: reference: %v", codec, name, err)
			}
			compareRecords(t, ref, recs)
			compareRecords(t, got, recs)
		}
	}
}

func compareRecords(t *testing.T, got, want []Word) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: %v, want %v", i, got[i], want[i])
		}
	}
}

// TestDecodeParallelVsSerialByteIdentical: every worker count must
// produce the records the serial reference path (workers == 1, inline,
// no goroutines) produces.
func TestDecodeParallelVsSerialByteIdentical(t *testing.T) {
	recs := makeTrace(9000, 23)
	for _, codec := range []uint16{CodecRaw, CodecDelta} {
		b := writeSegmented(t, recs, 8, codec, "parallel-test")
		want, err := decodeRandomAccess(b, 1)
		if err != nil {
			t.Fatalf("codec %d: serial decode: %v", codec, err)
		}
		compareRecords(t, want, recs)
		for _, workers := range []int{0, 2, 4, 8} {
			got, err := decodeRandomAccess(b, workers)
			if err != nil {
				t.Fatalf("codec %d workers=%d: %v", codec, workers, err)
			}
			compareRecords(t, got, want)
		}
	}
}

// TestDecodeTruncationEquivalence cuts a segmented stream at every
// possible byte offset and checks that the sequential (Scanner) and
// random-access (File) pipelines agree exactly: same records on
// success — which the reference decoder must also read — and the same
// error string on failure, including the wrapped io.ErrUnexpectedEOF
// with the record index for mid-segment truncation. The sweep runs over
// both payload encodings: a cut inside a flate payload truncates the
// deflate stream itself, and both pipelines must classify that as the
// same segment-indexed truncation, never as corruption.
func TestDecodeTruncationEquivalence(t *testing.T) {
	for _, codec := range []uint16{CodecRaw, CodecDelta} {
		for _, enc := range []uint8{SegEncRaw, SegEncFlate} {
			full := writeSegmentedEnc(t, makeTrace(120, 31), 3, codec, enc, "cut")
			for cut := 0; cut <= len(full); cut++ {
				b := full[:cut]
				sRecs, sErr := decodeStreaming(b)
				if sErr == nil {
					ref, err := referenceReadAll(bytes.NewReader(b))
					if err != nil {
						t.Fatalf("codec %d enc %d cut %d: reference rejects an accepted prefix: %v", codec, enc, cut, err)
					}
					compareRecords(t, sRecs, ref)
				}
				for _, workers := range []int{1, 4} {
					rRecs, rErr := decodeRandomAccess(b, workers)
					switch {
					case sErr == nil && rErr == nil:
						compareRecords(t, rRecs, sRecs)
					case sErr == nil || rErr == nil:
						t.Fatalf("codec %d enc %d cut %d workers %d: scanner err %v, random-access err %v",
							codec, enc, cut, workers, sErr, rErr)
					case sErr.Error() != rErr.Error():
						t.Fatalf("codec %d enc %d cut %d workers %d: error mismatch:\n  scanner:       %v\n  random-access: %v",
							codec, enc, cut, workers, sErr, rErr)
					}
				}
				if cut < len(full) && sErr != nil && !errors.Is(sErr, io.ErrUnexpectedEOF) &&
					cut > 16 { // container headers fail with their own messages
					t.Fatalf("codec %d enc %d cut %d: error %v does not wrap io.ErrUnexpectedEOF", codec, enc, cut, sErr)
				}
			}
		}
	}
}

// TestOpenFileRoundTrip: the path-based entry point serves the same
// data and owns the file handle.
func TestOpenFileRoundTrip(t *testing.T) {
	recs := makeTrace(2000, 47)
	b := writeSegmented(t, recs, 4, CodecDelta, "openfile-test")
	path := filepath.Join(t.TempDir(), "t.trc")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := OpenFile(path)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	got, err := f.Records(0)
	if err != nil {
		t.Fatalf("Records: %v", err)
	}
	compareRecords(t, got, recs)
	if f.Meta() != "openfile-test" || len(f.Segments()) != 4 {
		t.Errorf("meta %q, %d segments", f.Meta(), len(f.Segments()))
	}
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := OpenFile(filepath.Join(t.TempDir(), "missing.trc")); err == nil {
		t.Error("OpenFile on a missing path did not error")
	}
}

// TestScanDecodeAllocs: the pipe path — Scanner plus DecodeSegment
// into a reused dst — allocates at most once per segment once dst is
// warm. The scanner's payload buffer grows to the largest segment and
// is then reused, so a whole scan costs a fixed handful of allocations
// (the scanner, its read buffer, the metadata and header scratch, one
// payload buffer), not one per record or per segment.
func TestScanDecodeAllocs(t *testing.T) {
	const nseg = 16
	recs := makeTrace(200_000, 3)
	b := writeSegmented(t, recs, nseg, CodecDelta, "scan")
	var dst []Word
	scan := func() {
		sc, err := NewScanner(bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		var base uint64
		for {
			seg, err := sc.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if dst, err = DecodeSegment(seg.Codec, seg.Info, seg.Payload, dst, base); err != nil {
				t.Fatal(err)
			}
			base += uint64(len(dst))
		}
		if base != uint64(len(recs)) {
			t.Fatalf("scanned %d records, want %d", base, len(recs))
		}
	}
	scan() // size dst
	if allocs := testing.AllocsPerRun(10, scan); allocs > nseg {
		t.Errorf("scanner decode: %.1f allocs per %d-segment scan, want <= 1 per segment", allocs, nseg)
	}
}

// TestSegmentPayloadOverrunEquivalence: a segment header promising more
// payload than the file holds — with a record count the truncated
// payload still satisfies — must fail identically from both pipelines.
func TestSegmentPayloadOverrunEquivalence(t *testing.T) {
	recs := makeTrace(64, 9)
	full := writeSegmented(t, recs, 1, CodecDelta, "")
	// Inflate the lone segment's payLen beyond the file end; the
	// records themselves remain intact. Field layout after the 16-byte
	// stream header (no meta): marker(4) index(4) count(8) dropped(8)
	// cycles(8) payLen(8).
	b := bytes.Clone(full)
	const payLenOff = 16 + 4 + 4 + 8 + 8 + 8
	pay := uint64(len(b) - (16 + 4 + segHeaderBytes))
	binary.LittleEndian.PutUint64(b[payLenOff:], pay+1000)
	sRecs, sErr := decodeStreaming(b)
	rRecs, rErr := decodeRandomAccess(b, 1)
	if sErr == nil || rErr == nil {
		t.Fatalf("overrun stream decoded cleanly: scanner (%d recs, %v), random-access (%d recs, %v)",
			len(sRecs), sErr, len(rRecs), rErr)
	}
	if sErr.Error() != rErr.Error() {
		t.Fatalf("error mismatch:\n  scanner:       %v\n  random-access: %v", sErr, rErr)
	}
	if !errors.Is(sErr, io.ErrUnexpectedEOF) {
		t.Fatalf("overrun error %v does not wrap io.ErrUnexpectedEOF", sErr)
	}
}
