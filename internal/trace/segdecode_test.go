package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
)

// captureSegments writes recs as n segments and returns deep copies of
// every teed StreamSegment (the writer reuses its encode buffer, so the
// tee's payload must be copied to outlive the call) plus the on-disk
// stream bytes.
func captureSegments(t *testing.T, recs []Word, n int, codec uint16) ([]StreamSegment, []byte) {
	t.Helper()
	var segs []StreamSegment
	var buf bytes.Buffer
	sw, err := NewSegmentWriter(&buf, codec, "segdecode")
	if err != nil {
		t.Fatal(err)
	}
	sw.Tee(func(s StreamSegment) {
		segs = append(segs, StreamSegment{
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
		if _, err := sw.WriteSegment(recs[off:end], SegmentInfo{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	return segs, buf.Bytes()
}

// TestDecodeSegmentRoundTrip: decoding every teed segment and
// concatenating must reproduce the written records exactly, for both
// codecs, reusing one dst buffer across segments the way the streaming
// pipeline does.
func TestDecodeSegmentRoundTrip(t *testing.T) {
	recs := makeTrace(5000, 21)
	for _, codec := range []uint16{CodecRaw, CodecDelta} {
		segs, _ := captureSegments(t, recs, 4, codec)
		var got []Word
		var dst []Word
		var base uint64
		for _, s := range segs {
			out, err := DecodeSegment(s.Codec, s.Info, s.Payload, dst, base)
			if err != nil {
				t.Fatalf("codec=%d segment %d: %v", codec, s.Info.Index, err)
			}
			if uint64(len(out)) != s.Info.Records {
				t.Fatalf("codec=%d segment %d: decoded %d records, header says %d",
					codec, s.Info.Index, len(out), s.Info.Records)
			}
			got = append(got, out...)
			base += uint64(len(out))
			dst = out // reuse: steady-state decoding allocates once
		}
		if !reflect.DeepEqual(got, recs) {
			t.Fatalf("codec=%d: round trip differs", codec)
		}
	}
}

// TestDecodeSegmentTruncation: a payload cut short must deliver every
// record before the cut alongside a record-indexed unexpected-EOF —
// worded exactly as the reference decoder words reading the
// equally-truncated file, and exactly as File reports it.
func TestDecodeSegmentTruncation(t *testing.T) {
	recs := makeTrace(600, 33)
	for _, codec := range []uint16{CodecRaw, CodecDelta} {
		for _, cut := range []int{1, 5, 17} {
			segs, stream := captureSegments(t, recs, 1, codec)
			s := segs[0]
			if cut >= len(s.Payload) {
				t.Fatalf("cut %d exceeds payload %d", cut, len(s.Payload))
			}
			prefix, gotErr := DecodeSegment(s.Codec, s.Info, s.Payload[:len(s.Payload)-cut], nil, 0)
			if gotErr == nil {
				t.Fatalf("codec=%d cut=%d: truncation not reported", codec, cut)
			}
			if !errors.Is(gotErr, io.ErrUnexpectedEOF) {
				t.Fatalf("codec=%d cut=%d: error %v does not wrap io.ErrUnexpectedEOF", codec, cut, gotErr)
			}
			if !reflect.DeepEqual(prefix, recs[:len(prefix)]) {
				t.Fatalf("codec=%d cut=%d: decoded prefix diverges from written records", codec, cut)
			}
			if want := fmt.Sprintf("trace: record %d", len(prefix)); !strings.HasPrefix(gotErr.Error(), want) {
				t.Fatalf("codec=%d cut=%d: error %q does not name the record after the %d-record prefix", codec, cut, gotErr, len(prefix))
			}

			truncated := stream[:len(stream)-cut]
			_, refErr := referenceReadAll(bytes.NewReader(truncated))
			if refErr == nil || gotErr.Error() != refErr.Error() {
				t.Fatalf("codec=%d cut=%d: segment error %q != reference error %v", codec, cut, gotErr, refErr)
			}
			if _, fileErr := decodeRandomAccess(truncated, 1); fileErr == nil || gotErr.Error() != fileErr.Error() {
				t.Fatalf("codec=%d cut=%d: segment error %q != File error %v", codec, cut, gotErr, fileErr)
			}
		}
	}
}

// TestDecodeSegmentBaseIndex: errors are indexed from base, so a
// mid-stream segment reports the same absolute record number a batch
// read of the whole stream would.
func TestDecodeSegmentBaseIndex(t *testing.T) {
	recs := makeTrace(100, 8)
	segs, _ := captureSegments(t, recs, 1, CodecRaw)
	s := segs[0]
	_, err0 := DecodeSegment(s.Codec, s.Info, s.Payload[:len(s.Payload)-4], nil, 0)
	_, err1000 := DecodeSegment(s.Codec, s.Info, s.Payload[:len(s.Payload)-4], nil, 1000)
	if err0 == nil || err1000 == nil {
		t.Fatal("truncation not reported")
	}
	if err0.Error() == err1000.Error() {
		t.Fatalf("base ignored: %q == %q", err0, err1000)
	}
}

// TestDecodeSegmentEdges: empty segments, unknown codecs, and payloads
// longer than the header promises.
func TestDecodeSegmentEdges(t *testing.T) {
	// Empty segment: no records, no error.
	out, err := DecodeSegment(CodecDelta, SegmentInfo{}, nil, nil, 0)
	if err != nil || len(out) != 0 {
		t.Fatalf("empty segment: %d records, err %v", len(out), err)
	}
	// Empty segment whose header promises payload that never arrived.
	if _, err := DecodeSegment(CodecDelta, SegmentInfo{Index: 3, PayloadBytes: 10}, nil, nil, 0); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("short empty segment: err %v, want unexpected EOF", err)
	}
	// Unknown codec.
	if _, err := DecodeSegment(99, SegmentInfo{Records: 1, PayloadBytes: 8}, make([]byte, 8), nil, 0); err == nil {
		t.Fatal("unknown codec accepted")
	}
	// A payload slice longer than the header promises is clamped to the
	// framing, never decoded past it.
	recs := makeTrace(64, 5)
	segs, _ := captureSegments(t, recs, 1, CodecRaw)
	s := segs[0]
	long := append(append([]byte(nil), s.Payload...), 0xAA, 0xBB, 0xCC, 0xDD, 1, 2, 3, 4)
	out, err = DecodeSegment(s.Codec, s.Info, long, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, recs) {
		t.Fatal("overlong payload decoded past the framing")
	}
}
