package trace

import (
	"fmt"
	"io"
)

// Segment-granular decode entry point for the streaming analysis
// pipeline (internal/sweep). The spill service tees every segment it
// writes (SegmentWriter.Tee) to a consumer that decodes it immediately
// with DecodeSegment — the same batch codec layer (batch.go) behind the
// streaming Decoder and the random-access File, so a streamed decode is
// byte-identical to re-reading the file, including the record-indexed
// truncation errors.

// StreamSegment is one written segment handed to a SegmentWriter tee:
// the stream codec, the segment's header metadata, and its encoded
// payload. The payload aliases the writer's reusable encode buffer (or
// the packed records a raw segment was written from), so it is valid
// only for the duration of the tee call — consumers must decode (or
// copy) before returning.
type StreamSegment struct {
	Codec   uint16
	Info    SegmentInfo
	Payload []byte
}

// DecodeSegment decodes one segment payload into records, reusing dst's
// capacity when it suffices (pass the previous call's result to decode
// a whole stream with one steady-state allocation). base is the
// absolute index of the segment's first record; errors name record
// indexes relative to it, exactly as the file-reading decoders would.
//
// The payload is the segment's stored form: when info.Encoding says the
// segment is compressed, DecodeSegment inflates it (into a pooled
// buffer) before decoding, so consumers are encoding-agnostic. The
// payload may be shorter than Info.PayloadBytes promises (a capture
// cut off mid-spill): the decoded prefix is returned alongside a
// wrapped io.ErrUnexpectedEOF — the same partial-delivery contract as
// Reader.Decode, so a streamed consumer and a batch re-read of the
// truncated file observe identical records and identical errors.
func DecodeSegment(codec uint16, info SegmentInfo, payload []byte, dst []Record, base uint64) ([]Record, error) {
	if codec != CodecRaw && codec != CodecDelta {
		return dst[:0], fmt.Errorf("trace: unknown codec %d", codec)
	}
	short := uint64(len(payload)) < info.PayloadBytes
	if !short {
		// Never decode past the framing: a payload slice longer than the
		// header promises would desynchronise against the file readers.
		payload = payload[:info.PayloadBytes]
	}
	if info.Encoding != SegEncRaw {
		// The payload is the stored (compressed) form — inflate it into
		// a pooled buffer before the codec sees it. Records never alias
		// the inflated bytes, so returning the buffer on exit is safe.
		ib := infBufPool.Get().(*[]byte)
		defer infBufPool.Put(ib)
		data, infShort, err := inflateSegment(info, payload, short, ib)
		if err != nil {
			return dst[:0], err
		}
		payload, short = data, infShort
	}
	if info.Records == 0 {
		if short {
			return dst[:0], fmt.Errorf("trace: segment %d payload: %w", info.Index, io.ErrUnexpectedEOF)
		}
		return dst[:0], nil
	}

	// The header's record count sizes the buffer, clamped by what the
	// payload could possibly encode (counts are untrusted input).
	alloc := info.Records
	if max := uint64(len(payload))/minEncRecordBytes + 1; alloc > max {
		alloc = max
	}
	if uint64(cap(dst)) < alloc {
		dst = make([]Record, alloc)
	} else {
		dst = dst[:alloc]
	}

	var nrec int
	var derr *batchError
	if codec == CodecRaw {
		nrec, _, derr = decodeRawBatch(dst, payload)
	} else {
		var st deltaState
		nrec, _, derr = decodeDeltaBatch(dst, payload, &st)
	}
	out := dst[:nrec]
	if derr != nil && !derr.truncated {
		return out, recordError(derr, base+uint64(nrec))
	}
	if uint64(nrec) < info.Records {
		// The payload ran out before the count was met — the same
		// record-indexed truncation the file readers report.
		field := ""
		if derr != nil {
			field = derr.field
		}
		return out, recordError(&batchError{field: field, truncated: true}, base+uint64(nrec))
	}
	if short {
		// All records decoded but the framing promised more payload than
		// arrived; the file readers fail discarding the tail, and so do we.
		return out, fmt.Errorf("trace: segment %d payload: %w", info.Index, io.ErrUnexpectedEOF)
	}
	mDecodeSegments.Inc()
	mDecodeRecords.Add(uint64(nrec))
	mDecodeBytes.Add(uint64(len(payload)))
	return out, nil
}
