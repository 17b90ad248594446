package trace

import (
	"encoding/binary"
	"slices"
)

// Encode side of the codecs. Every writer encodes from the packed layout
// the collector's trace store writes into reserved memory: the spill
// service hands over the reserved region as it stands, and the writers
// that start from []Record pack them first (appendPacked). Each codec
// therefore has exactly one encoder. The raw codec's payload is the
// packed bytes themselves; the delta codec's is built by appendDelta.

// Delta codec header byte: kind(3) | widthLog2(2) | user(1) | phys(1) |
// pidChanged(1) — the packed byte 0 with its reserved top bit reused.
const deltaPIDChanged = 1 << 7

// appendPacked appends the packed form of recs to dst.
func appendPacked(dst []byte, recs []Record) []byte {
	dst = slices.Grow(dst, len(recs)*RecordBytes)
	for _, r := range recs {
		dst = binary.LittleEndian.AppendUint64(dst, Pack(r.Kind, r.Addr, r.Width, r.PID, r.User, r.Phys, r.Extra))
	}
	return dst
}

// appendDelta appends the delta encoding of the packed records to dst,
// starting from the zero state every segment begins with. Per record: the header byte, the PID only when it
// changes, the zigzag-varint address delta against the previous
// address of the same kind, and for marker kinds the Extra field as a
// uvarint.
func appendDelta(dst, packed []byte) []byte {
	// Kind is three bits wide; state for all eight values keeps a
	// reserved kind from indexing past the array.
	var lastAddr [8]uint32
	var lastPID byte
	for i := 0; i+RecordBytes <= len(packed); i += RecordBytes {
		v := binary.LittleEndian.Uint64(packed[i:])
		b0 := byte(v)
		h := b0 &^ deltaPIDChanged
		if pid := byte(v >> 8); pid != lastPID {
			dst = append(dst, h|deltaPIDChanged, pid)
			lastPID = pid
		} else {
			dst = append(dst, h)
		}
		k := Kind(b0 & 7)
		addr := uint32(v >> 32)
		dst = binary.AppendVarint(dst, int64(addr)-int64(lastAddr[k]))
		lastAddr[k] = addr
		if k == KindCtxSwitch || k == KindException {
			dst = binary.AppendUvarint(dst, uint64(uint16(v>>16)))
		}
	}
	return dst
}
