// Package trace defines the ATUM trace record — the unit the microcode
// patches write into reserved physical memory — together with the packed
// in-memory encoding, an on-disk stream format with an optional
// delta-compressed codec, filters, and summary statistics.
package trace

import (
	"encoding/binary"
	"fmt"
)

// Kind classifies a trace record.
type Kind uint8

const (
	KindIFetch    Kind = iota // instruction-stream fetch (aligned longword)
	KindDRead                 // data read
	KindDWrite                // data write
	KindPTERead               // PTE read by translation microcode
	KindPTEWrite              // PTE modify-bit write
	KindCtxSwitch             // context switch; Extra = incoming PID
	KindException             // exception/interrupt; Extra = SCB vector
	NumKinds
)

func (k Kind) String() string {
	switch k {
	case KindIFetch:
		return "ifetch"
	case KindDRead:
		return "dread"
	case KindDWrite:
		return "dwrite"
	case KindPTERead:
		return "pteread"
	case KindPTEWrite:
		return "ptewrite"
	case KindCtxSwitch:
		return "ctxswitch"
	case KindException:
		return "exception"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// IsMemRef reports whether the record is an actual memory reference (as
// opposed to a marker record).
func (k Kind) IsMemRef() bool { return k <= KindPTEWrite }

// Record is one decoded trace entry.
type Record struct {
	Kind  Kind
	Addr  uint32 // virtual address (physical when Phys)
	Width uint8  // reference width in bytes (1, 2 or 4); 0 for marker records
	PID   uint8
	User  bool // access made in user mode
	Phys  bool // Addr is physical (system PTE and PCB references)
	Extra uint16
}

func (r Record) String() string {
	mode := "k"
	if r.User {
		mode = "u"
	}
	space := ""
	if r.Phys {
		space = " phys"
	}
	s := fmt.Sprintf("%-9s pid=%-2d %s %08x w%d%s", r.Kind, r.PID, mode, r.Addr, r.Width, space)
	if r.Kind == KindCtxSwitch || r.Kind == KindException {
		s += fmt.Sprintf(" extra=%#x", r.Extra)
	}
	return s
}

// RecordBytes is the packed record size in the reserved physical buffer.
const RecordBytes = 8

// Packed layout:
//
//	byte 0: kind(3) | widthLog2(2) | user(1) | phys(1) | reserved(1)
//	byte 1: PID
//	bytes 2-3: Extra, little endian
//	bytes 4-7: Addr, little endian
const (
	flagUser = 1 << 5
	flagPhys = 1 << 6
)

// Pack returns one record in the packed layout, read as a little-endian
// uint64 — the value the collector's trace store writes with a single
// 8-byte store. Encode goes through it too, so the layout is defined
// here alone.
func Pack(k Kind, addr uint32, width, pid uint8, user, phys bool, extra uint16) uint64 {
	var wl uint64
	switch width {
	case 2:
		wl = 1
	case 4:
		wl = 2
	}
	b0 := uint64(k)&7 | wl<<3
	if user {
		b0 |= flagUser
	}
	if phys {
		b0 |= flagPhys
	}
	return b0 | uint64(pid)<<8 | uint64(extra)<<16 | uint64(addr)<<32
}

// Encode packs the record into b (at least RecordBytes long).
func (r Record) Encode(b []byte) {
	binary.LittleEndian.PutUint64(b, Pack(r.Kind, r.Addr, r.Width, r.PID, r.User, r.Phys, r.Extra))
}

// DecodeRecord unpacks one record from b. The packed width field cannot
// represent 0, so marker kinds — which carry no reference width — decode
// to Width 0 by fiat rather than a phantom 1-byte width.
func DecodeRecord(b []byte) Record {
	b0 := b[0]
	k := Kind(b0 & 7)
	var w uint8
	if k.IsMemRef() {
		w = 1 << (b0 >> 3 & 3)
	}
	return Record{
		Kind:  k,
		Width: w,
		User:  b0&flagUser != 0,
		Phys:  b0&flagPhys != 0,
		PID:   b[1],
		Extra: binary.LittleEndian.Uint16(b[2:]),
		Addr:  binary.LittleEndian.Uint32(b[4:]),
	}
}

// ParseBuffer decodes the packed records in a raw trace-buffer image
// (length must be a multiple of RecordBytes).
func ParseBuffer(buf []byte) ([]Record, error) {
	if len(buf)%RecordBytes != 0 {
		return nil, fmt.Errorf("trace: buffer length %d not a record multiple", len(buf))
	}
	out := make([]Record, 0, len(buf)/RecordBytes)
	for i := 0; i < len(buf); i += RecordBytes {
		out = append(out, DecodeRecord(buf[i:i+RecordBytes]))
	}
	return out, nil
}

// FilterUser returns only user-mode references — what a user-level
// tracing tool would have seen. Marker records from user context are
// retained; kernel references, PTE references and kernel markers drop.
func FilterUser(recs []Record) []Record {
	out := make([]Record, 0, len(recs))
	for _, r := range recs {
		if r.User && r.Kind != KindPTERead && r.Kind != KindPTEWrite {
			out = append(out, r)
		}
	}
	return out
}

// FilterPID returns only records attributed to one process.
func FilterPID(recs []Record, pid uint8) []Record {
	out := make([]Record, 0, len(recs))
	for _, r := range recs {
		if r.PID == pid {
			out = append(out, r)
		}
	}
	return out
}

// FilterMemRefs drops marker records, keeping actual references.
func FilterMemRefs(recs []Record) []Record {
	out := make([]Record, 0, len(recs))
	for _, r := range recs {
		if r.Kind.IsMemRef() {
			out = append(out, r)
		}
	}
	return out
}
