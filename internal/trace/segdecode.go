package trace

import (
	"bufio"
	"fmt"
	"io"
	"slices"
)

// The one record decoder. Every reader is a header walk plus
// DecodeSegment: File fetches each payload from its index (mmap slice
// or pooled buffer), Scanner reads them off a pipe in order, and the
// streaming analysis pipeline (internal/sweep) decodes the segments a
// SegmentWriter tees as they are written. All three therefore yield the
// same records and the same record-indexed truncation errors.

// StreamSegment is one segment as a SegmentWriter tee or a Scanner
// hands it over: the stream codec, the segment's header metadata, and
// its stored payload. The payload aliases a reused buffer (the writer's
// encode buffer, the packed records a raw segment was written from, or
// the scanner's read buffer), so it is valid only until the tee call
// returns or the next Scanner.Next — consumers must decode (or copy)
// before then.
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
func DecodeSegment(codec uint16, info SegmentInfo, payload []byte, dst []Word, base uint64) ([]Word, error) {
	if codec != CodecRaw && codec != CodecDelta {
		return dst[:0], fmt.Errorf("trace: unknown codec %d", codec)
	}
	short := uint64(len(payload)) < info.PayloadBytes
	if !short {
		// Never decode past the framing: a payload slice longer than the
		// header promises would desynchronise against the readers.
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
		dst = make([]Word, alloc)
	} else {
		dst = dst[:alloc]
	}

	var nrec int
	var derr *batchError
	if codec == CodecRaw {
		nrec, derr = decodeRawBatch(dst, payload)
	} else {
		nrec, derr = decodeDeltaBatch(dst, payload)
	}
	out := dst[:nrec]
	if derr != nil && !derr.truncated {
		return out, recordError(derr, base+uint64(nrec))
	}
	if uint64(nrec) < info.Records {
		// The payload ran out before the count was met.
		field := ""
		if derr != nil {
			field = derr.field
		}
		return out, recordError(&batchError{field: field, truncated: true}, base+uint64(nrec))
	}
	if short {
		// All records decoded but the framing promised more payload than
		// arrived.
		return out, fmt.Errorf("trace: segment %d payload: %w", info.Index, io.ErrUnexpectedEOF)
	}
	mDecodeSegments.Inc()
	mDecodedRecords.Add(uint64(nrec))
	mDecodeBytes.Add(uint64(len(payload)))
	return out, nil
}

// minEncRecordBytes is the smallest possible encoded record (delta:
// header byte + 1-byte varint); it bounds how many records a payload of
// known length can hold, so a forged count cannot force a giant
// allocation.
const minEncRecordBytes = 2

// payloadChunk bounds how much a Scanner grows its payload buffer per
// read, so a forged payLen cannot force a giant allocation: memory
// grows only as fast as bytes actually arrive.
const payloadChunk = 64 << 10

// Scanner reads a segmented stream sequentially — the path for pipes
// and other inputs that cannot seek. Next returns one segment at a
// time with its stored payload, ready for DecodeSegment; only that one
// payload is held, in a buffer reused across segments.
type Scanner struct {
	w   *headerWalk
	buf []byte
	err error // sticky: io.EOF once the stream is done
}

// NewScanner reads and validates the stream header from r.
func NewScanner(r io.Reader) (*Scanner, error) {
	w, err := newHeaderWalk(bufio.NewReader(r))
	if err != nil {
		return nil, err
	}
	return &Scanner{w: w}, nil
}

// Meta returns the stream's provenance string.
func (s *Scanner) Meta() string { return s.w.meta }

// Next reads the next segment. It returns io.EOF after the last one. A
// payload cut short by the end of the input is returned as it stands —
// DecodeSegment reports the truncation, record-indexed, exactly as
// File.Segment does for the same bytes — and ends the stream. The
// payload is valid until the next call.
func (s *Scanner) Next() (StreamSegment, error) {
	if s.err != nil {
		return StreamSegment{}, s.err
	}
	info, err := s.w.next()
	if err != nil {
		s.err = err
		return StreamSegment{}, err
	}
	buf := s.buf[:0]
	for uint64(len(buf)) < info.PayloadBytes {
		need := len(buf) + int(min(info.PayloadBytes-uint64(len(buf)), payloadChunk))
		buf = slices.Grow(buf, need-len(buf))
		n, err := io.ReadFull(s.w.r, buf[len(buf):need])
		buf = buf[:len(buf)+n]
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			s.err = io.EOF
			break
		}
		if err != nil {
			s.err = fmt.Errorf("trace: segment %d payload: %w", info.Index, err)
			return StreamSegment{}, s.err
		}
	}
	s.buf = buf
	return StreamSegment{Codec: s.w.codec, Info: info, Payload: buf}, nil
}
