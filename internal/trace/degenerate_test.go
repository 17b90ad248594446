package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"strings"
	"testing"
)

// buildSegmented assembles a segmented stream header followed by raw
// segment material the test shapes by hand.
func buildSegmented(codec uint16, tail []byte) []byte {
	var b bytes.Buffer
	b.Write(segMagic[:])
	var hdr [8]byte
	binary.LittleEndian.PutUint16(hdr[0:], segVersion)
	binary.LittleEndian.PutUint16(hdr[2:], codec)
	b.Write(hdr[:])
	b.Write(tail)
	return b.Bytes()
}

// segmentBlob encodes one segment (header + payload) with an arbitrary
// declared payload length, letting tests declare more than they attach.
// It stamps CPU 0 and sequence mark index+1, as a serial capture does.
func segmentBlob(index uint32, records uint64, payload []byte, declaredLen uint64) []byte {
	var b bytes.Buffer
	b.Write(segMarker[:])
	var hdr [segHeaderBytes]byte
	binary.LittleEndian.PutUint32(hdr[0:], index)
	binary.LittleEndian.PutUint64(hdr[4:], records)
	binary.LittleEndian.PutUint64(hdr[28:], declaredLen)
	binary.LittleEndian.PutUint64(hdr[47:], uint64(index)+1)
	b.Write(hdr[:])
	b.Write(payload)
	return b.Bytes()
}

// TestOpenDegenerateInputs drives both read paths — the sequential
// Scanner and random-access OpenReaderAt — over the degenerate inputs a
// capture pipeline actually produces when it is killed or
// misconfigured, and pins that each failure is distinguishable: empty
// input is ErrEmpty, truncations are record- or segment-indexed
// wrapped io.ErrUnexpectedEOF, and a bare stream header is a legal
// zero-record trace, not an error. The retired formats — the
// monolithic container and version-1 and version-2 segment streams —
// are rejected by name.
func TestOpenDegenerateInputs(t *testing.T) {
	// A header of the retired monolithic container, promising one raw
	// record with no payload.
	monoHeader, err := os.ReadFile("testdata/monolithic-header.bin")
	if err != nil {
		t.Fatal(err)
	}

	// A version-1 segment-stream header (the layout before per-segment
	// encodings) with no segments.
	v1 := buildSegmented(CodecDelta, nil)
	binary.LittleEndian.PutUint16(v1[8:], 1)

	// A version-2 segment-stream header (the layout whose serial
	// segments carried no cpu/seq stamps) with no segments.
	v2 := buildSegmented(CodecDelta, nil)
	binary.LittleEndian.PutUint16(v2[8:], 2)

	// A segmented stream whose only segment declares 8 payload bytes
	// but the file ends after 4.
	rec := wordBytes([]Word{Pack(KindIFetch, 0x200, 4, 0, false, false, 0)})
	overrun := buildSegmented(CodecRaw, segmentBlob(0, 1, rec[:4], RecordBytes))

	// A segmented stream with zero records whose declared payload
	// overruns the file: the truncation must still be segment-indexed.
	// (Delta codec: raw's records↔payload consistency check would
	// reject the header before the truncation is even reached.)
	emptyOverrun := buildSegmented(CodecDelta, segmentBlob(0, 0, nil, 0)[:4+segHeaderBytes])
	// Declare 16 payload bytes, attach none (payLen sits at header
	// offset 28, after the marker).
	binary.LittleEndian.PutUint64(emptyOverrun[len(emptyOverrun)-segHeaderBytes+28:], 16)

	// A segment header cut off halfway.
	shortHeader := buildSegmented(CodecDelta, segmentBlob(0, 0, nil, 0)[:10])

	cases := []struct {
		name    string
		in      []byte
		records int    // when wantErr and substr are unset
		wantErr error  // matched with errors.Is
		substr  string // and the message names the failing record/segment
	}{
		{name: "empty file", in: nil, wantErr: ErrEmpty},
		{name: "truncated magic", in: segMagic[:3], wantErr: io.ErrUnexpectedEOF, substr: "magic"},
		{name: "bare segmented header zero segments", in: buildSegmented(CodecDelta, nil), records: 0},
		{name: "monolithic header no payload", in: monoHeader, substr: "bad magic"},
		{name: "v1 segment-stream header", in: v1, substr: "unsupported segment-stream version 1"},
		{name: "v2 segment-stream header", in: v2, substr: "unsupported segment-stream version 2"},
		{name: "segment payload overruns file", in: overrun, wantErr: io.ErrUnexpectedEOF, substr: "record 0"},
		{name: "empty segment payload overruns file", in: emptyOverrun, wantErr: io.ErrUnexpectedEOF, substr: "segment 0"},
		{name: "segment header cut short", in: shortHeader, wantErr: io.ErrUnexpectedEOF, substr: "segment 0 header"},
	}

	type path struct {
		name string
		read func([]byte) ([]Word, error)
	}
	paths := []path{
		{"streaming", func(in []byte) ([]Word, error) { return readAll(bytes.NewReader(in)) }},
		{"readerat", func(in []byte) ([]Word, error) {
			f, err := OpenReaderAt(bytes.NewReader(in), int64(len(in)))
			if err != nil {
				return nil, err
			}
			return f.Records(2)
		}},
	}

	for _, tc := range cases {
		for _, p := range paths {
			t.Run(tc.name+"/"+p.name, func(t *testing.T) {
				recs, err := p.read(tc.in)
				if tc.wantErr == nil && tc.substr == "" {
					if err != nil {
						t.Fatalf("unexpected error: %v", err)
					}
					if len(recs) != tc.records {
						t.Fatalf("decoded %d records, want %d", len(recs), tc.records)
					}
					return
				}
				if err == nil {
					t.Fatalf("decoded %d records, want an error naming %q", len(recs), tc.substr)
				}
				if tc.wantErr != nil && !errors.Is(err, tc.wantErr) {
					t.Errorf("error %q does not wrap %v", err, tc.wantErr)
				}
				if tc.substr != "" && !strings.Contains(err.Error(), tc.substr) {
					t.Errorf("error %q does not name %q", err, tc.substr)
				}
				// ErrEmpty is reserved for genuinely empty input; a
				// truncated stream must never read as merely empty.
				if tc.wantErr != ErrEmpty && errors.Is(err, ErrEmpty) {
					t.Errorf("truncated input misreported as empty: %q", err)
				}
			})
		}
	}
}

// TestErrEmptyDistinguishable pins the motivating property directly:
// before the fix both an empty file and some truncations surfaced as a
// bare io.EOF wrap, so callers could not tell "no trace yet" from "half
// a trace".
func TestErrEmptyDistinguishable(t *testing.T) {
	_, err := NewScanner(bytes.NewReader(nil))
	if !errors.Is(err, ErrEmpty) {
		t.Errorf("scanner open of empty input: %v, want ErrEmpty", err)
	}
	_, err = OpenReaderAt(bytes.NewReader(nil), 0)
	if !errors.Is(err, ErrEmpty) {
		t.Errorf("random-access open of empty input: %v, want ErrEmpty", err)
	}
	for _, in := range [][]byte{segMagic[:5], buildSegmented(CodecDelta, nil)[:12]} {
		_, serr := NewScanner(bytes.NewReader(in))
		_, ferr := OpenReaderAt(bytes.NewReader(in), int64(len(in)))
		for _, err := range []error{serr, ferr} {
			if err == nil || errors.Is(err, ErrEmpty) || !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Errorf("%d-byte header: %v, want a truncation, not ErrEmpty", len(in), err)
			}
		}
		if serr.Error() != ferr.Error() {
			t.Errorf("%d-byte header: scanner %q, random access %q", len(in), serr, ferr)
		}
	}
	// A bare header is a legal empty trace, and the reference decoder
	// agrees with both paths on it.
	bare := buildSegmented(CodecRaw, nil)
	for _, got := range [][]Word{mustRead(t, readAll, bare), mustRead(t, referenceReadAll, bare)} {
		if len(got) != 0 {
			t.Errorf("bare header decoded %d records", len(got))
		}
	}
}

// mustRead runs a whole-stream decoder over b and fails the test on
// error.
func mustRead(t *testing.T, read func(io.Reader) ([]Word, error), b []byte) []Word {
	t.Helper()
	recs, err := read(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return recs
}
