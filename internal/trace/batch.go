package trace

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Batch codec layer: both containers decode through the two batch
// functions below, which scan an in-memory payload window with index
// arithmetic — no per-byte reader calls, no per-record error wrapping —
// and commit complete records only. The streaming Decoder feeds them
// buffered windows (file.go); the random-access File feeds them whole
// segment payloads (readerat.go). One code path, so the two entry
// points are byte-identical by construction.

// deltaState is the delta codec's inter-record state: the last address
// seen per kind and the last PID. It resets at every segment boundary,
// which is what makes segments independently decodable.
type deltaState struct {
	lastAddr [NumKinds]uint32
	lastPID  uint8
}

// maxEncRecordBytes bounds one delta-encoded record: header byte, PID
// byte, zigzag-varint address, uvarint extra. Any window at least this
// long that still truncates mid-record is truncating the final record
// of its payload.
const maxEncRecordBytes = 2 + 2*binary.MaxVarintLen64

// Batch decode error causes. A batch function stops at the first
// problem record and reports which field failed through one of these;
// the caller owns the record numbering and wraps accordingly (see
// recordError). Truncation is not necessarily fatal to a streaming
// caller — the window may simply end mid-record and grow on refill.
type batchError struct {
	field     string // "", " pid", " addr", " extra"
	truncated bool   // window ended inside the record
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

// decodeRawBatch decodes as many whole raw records as dst and payload
// allow and returns how many records it wrote and how many payload
// bytes they consumed. A raw record is malformed only when it carries
// the reserved kind 7, which no collector writes and no Summary can
// count; decoding stops there with the delta codec's error for it.
func decodeRawBatch(dst []Record, payload []byte) (nrec, consumed int, err *batchError) {
	n := len(payload) / RecordBytes
	if n > len(dst) {
		n = len(dst)
	}
	for i := 0; i < n; i++ {
		b := payload[i*RecordBytes:]
		if k := b[0] & 7; k >= byte(NumKinds) {
			return i, i * RecordBytes, &batchError{msg: fmt.Sprintf("invalid kind %d", k)}
		}
		dst[i] = DecodeRecord(b)
	}
	return n, n * RecordBytes, nil
}

// decodeDeltaBatch decodes delta records from payload into dst until
// dst fills, the payload ends, or a record is malformed. It returns the
// records written, the bytes they consumed, and — when it stopped short
// of filling dst — the batch error describing the record at
// payload[consumed:]. State is committed per complete record: a record
// that fails mid-decode leaves st and dst untouched by it, so the
// caller can retry the same bytes against a longer window.
func decodeDeltaBatch(dst []Record, payload []byte, st *deltaState) (nrec, consumed int, err *batchError) {
	// The inter-record state lives in locals for the scan (the pointer
	// loads would otherwise sit on the critical path of every record) and
	// flushes back to st at every return. Both are committed only after a
	// record decodes completely, so a failed record leaves no trace.
	lastAddr := st.lastAddr
	lastPID := st.lastPID
	pos := 0
	for nrec < len(dst) {
		start := pos
		if pos >= len(payload) {
			st.lastAddr, st.lastPID = lastAddr, lastPID
			return nrec, start, &batchError{truncated: true}
		}
		h := payload[pos]
		pos++
		k := Kind(h & 7)
		if k >= NumKinds {
			st.lastAddr, st.lastPID = lastAddr, lastPID
			return nrec, start, &batchError{msg: fmt.Sprintf("invalid kind %d", h&7)}
		}
		rec := Record{
			Kind: k,
			User: h&flagUser != 0,
			Phys: h&flagPhys != 0,
		}
		// Markers carry no reference width (see DecodeRecord).
		if k.IsMemRef() {
			rec.Width = 1 << (h >> 3 & 3)
		}
		pid := lastPID
		if h&deltaPIDChanged != 0 {
			if pos >= len(payload) {
				st.lastAddr, st.lastPID = lastAddr, lastPID
				return nrec, start, &batchError{field: " pid", truncated: true}
			}
			pid = payload[pos]
			pos++
		}
		rec.PID = pid
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
					st.lastAddr, st.lastPID = lastAddr, lastPID
					return nrec, start, &batchError{field: " addr", truncated: true}
				}
				if vn < 0 {
					st.lastAddr, st.lastPID = lastAddr, lastPID
					return nrec, start, &batchError{field: " addr", msg: "varint overflows a 64-bit integer"}
				}
				delta = v
				pos += vn
			}
		} else {
			st.lastAddr, st.lastPID = lastAddr, lastPID
			return nrec, start, &batchError{field: " addr", truncated: true}
		}
		rec.Addr = uint32(int64(lastAddr[k]) + delta)
		if k == KindCtxSwitch || k == KindException {
			var x uint64
			if pos < len(payload) && payload[pos] < 0x80 {
				x = uint64(payload[pos])
				pos++
			} else {
				var un int
				x, un = binary.Uvarint(payload[pos:])
				if un == 0 {
					st.lastAddr, st.lastPID = lastAddr, lastPID
					return nrec, start, &batchError{field: " extra", truncated: true}
				}
				if un < 0 {
					st.lastAddr, st.lastPID = lastAddr, lastPID
					return nrec, start, &batchError{field: " extra", msg: "varint overflows a 64-bit integer"}
				}
				pos += un
			}
			rec.Extra = uint16(x)
		}
		lastPID = pid
		lastAddr[k] = rec.Addr
		dst[nrec] = rec
		nrec++
	}
	st.lastAddr, st.lastPID = lastAddr, lastPID
	return nrec, pos, nil
}
