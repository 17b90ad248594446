package trace

import "encoding/binary"

// Encode side of the codecs. Every writer encodes from the packed layout
// the collector's trace store writes into reserved memory: the spill
// service hands over the reserved region as it stands, and
// WriteSegment lays its words out in the same bytes. Each codec
// therefore has exactly one encoder. The raw codec's payload is the
// packed bytes themselves; the delta codec's is built by appendDelta.

// Delta codec header byte: kind(3) | widthLog2(2) | user(1) | phys(1) |
// pidChanged(1) — the packed byte 0 with its reserved top bit reused.
const deltaPIDChanged = flagReserved

// appendDelta appends the delta encoding of the packed records to dst,
// starting from the zero state every segment begins with. Per record: the header byte, the PID only when it
// changes, the zigzag-varint address delta against the previous
// address of the same kind, and for marker kinds the Extra field as a
// uvarint.
func appendDelta(dst, packed []byte) []byte {
	// Kind is three bits wide; state for all eight values keeps a
	// reserved kind from indexing past the array.
	var lastAddr [kindMask + 1]uint32
	var lastPID uint8
	for i := 0; i+RecordBytes <= len(packed); i += RecordBytes {
		w := Word(binary.LittleEndian.Uint64(packed[i:]))
		h := byte(w) &^ deltaPIDChanged // byte 0
		if pid := w.PID(); pid != lastPID {
			dst = append(dst, h|deltaPIDChanged, pid)
			lastPID = pid
		} else {
			dst = append(dst, h)
		}
		k, addr := w.Kind(), w.Addr()
		dst = binary.AppendVarint(dst, int64(addr)-int64(lastAddr[k]))
		lastAddr[k] = addr
		if k == KindCtxSwitch || k == KindException {
			dst = binary.AppendUvarint(dst, uint64(w.Extra()))
		}
	}
	return dst
}
