package trace

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Batch codec layer: DecodeSegment hands a whole segment payload to
// one of the two functions below, which scan it with index arithmetic —
// no per-byte reader calls, no per-record error wrapping — and commit
// complete records only. Every reader goes through DecodeSegment, so
// File and Scanner are byte-identical by construction.

// Batch decode error causes. A batch function stops at the first
// problem record and reports which field failed through one of these;
// the caller owns the record numbering and wraps accordingly (see
// recordError).
type batchError struct {
	field     string // "", " pid", " addr", " extra"
	truncated bool   // payload ended inside the record
	msg       string // malformed-record detail when !truncated
}

func (e *batchError) Error() string {
	if e.truncated {
		return "truncated record" + e.field
	}
	return e.msg
}

// recordError renders a batch error the way the decoder has always
// reported per-record failures: "trace: record N[ field]: cause", with
// truncation wrapping io.ErrUnexpectedEOF.
func recordError(e *batchError, index uint64) error {
	if e.truncated {
		return fmt.Errorf("trace: record %d%s: %w", index, e.field, io.ErrUnexpectedEOF)
	}
	return fmt.Errorf("trace: record %d%s: %s", index, e.field, e.msg)
}

// decodeRawBatch copies as many whole raw records as dst and payload
// allow and returns how many records it wrote. A raw record is
// malformed only when it carries the reserved kind 7, which no
// collector writes and no Summary can count; decoding stops there with
// the delta codec's error for it.
func decodeRawBatch(dst []Word, payload []byte) (nrec int, err *batchError) {
	n := len(payload) / RecordBytes
	if n > len(dst) {
		n = len(dst)
	}
	for i := 0; i < n; i++ {
		w := wordAt(payload[i*RecordBytes:])
		if k := w.Kind(); k >= NumKinds {
			return i, &batchError{msg: fmt.Sprintf("invalid kind %d", k)}
		}
		dst[i] = w
	}
	return n, nil
}

// decodeDeltaBatch decodes delta records from payload into dst until
// dst fills, the payload ends, or a record is malformed. It returns the
// records written and — when it stopped short of filling dst — the
// batch error describing the record after them. The inter-record state
// (last address per kind, last PID) starts from zero: each payload is
// one segment, and segments are independently encoded.
func decodeDeltaBatch(dst []Word, payload []byte) (nrec int, err *batchError) {
	var lastAddr [NumKinds]uint32
	var lastPID uint8
	pos := 0
	for nrec < len(dst) {
		if pos >= len(payload) {
			return nrec, &batchError{truncated: true}
		}
		h := payload[pos]
		pos++
		// The header is the packed byte 0 with its reserved bit reused
		// as the PID flag; clearing that leaves kind, width, user and
		// phys where Pack puts them.
		w := Word(h &^ deltaPIDChanged)
		k := w.Kind()
		if k >= NumKinds {
			return nrec, &batchError{msg: fmt.Sprintf("invalid kind %d", k)}
		}
		pid := lastPID
		if h&deltaPIDChanged != 0 {
			if pos >= len(payload) {
				return nrec, &batchError{field: " pid", truncated: true}
			}
			pid = payload[pos]
			pos++
		}
		// Address delta: zigzag varint. Within-kind deltas are small in
		// real traces (sequential fetches, strided data), so one- and
		// two-byte encodings are the hot cases; decode them inline and
		// leave the general loop to binary.Varint.
		var delta int64
		if pos < len(payload) {
			if b0 := payload[pos]; b0 < 0x80 {
				u := uint64(b0)
				delta = int64(u>>1) ^ -int64(u&1)
				pos++
			} else if pos+1 < len(payload) && payload[pos+1] < 0x80 {
				u := uint64(b0&0x7f) | uint64(payload[pos+1])<<7
				delta = int64(u>>1) ^ -int64(u&1)
				pos += 2
			} else {
				v, vn := binary.Varint(payload[pos:])
				if vn == 0 {
					return nrec, &batchError{field: " addr", truncated: true}
				}
				if vn < 0 {
					return nrec, &batchError{field: " addr", msg: "varint overflows a 64-bit integer"}
				}
				delta = v
				pos += vn
			}
		} else {
			return nrec, &batchError{field: " addr", truncated: true}
		}
		addr := uint32(int64(lastAddr[k]) + delta)
		w |= Word(pid)<<pidShift | Word(addr)<<addrShift
		if k == KindCtxSwitch || k == KindException {
			var x uint64
			if pos < len(payload) && payload[pos] < 0x80 {
				x = uint64(payload[pos])
				pos++
			} else {
				var un int
				x, un = binary.Uvarint(payload[pos:])
				if un == 0 {
					return nrec, &batchError{field: " extra", truncated: true}
				}
				if un < 0 {
					return nrec, &batchError{field: " extra", msg: "varint overflows a 64-bit integer"}
				}
				pos += un
			}
			// Markers carry no reference width: drop the header's.
			w = w&^widthMask | Word(uint16(x))<<extraShift
		}
		lastPID = pid
		lastAddr[k] = addr
		dst[nrec] = w
		nrec++
	}
	return nrec, nil
}
