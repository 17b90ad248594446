// Package trace defines the ATUM trace record — the packed 8-byte word
// the microcode patches write into reserved physical memory — together
// with an on-disk stream format with an optional delta-compressed codec,
// filters, and summary statistics.
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

// Word is one trace record in the packed layout the collector's trace
// store writes into reserved memory: read as a little-endian uint64,
// the 8 bytes of a record are its Word. It is the only in-memory form
// of a record — decoders produce it, arenas hold it, simulators read it
// through the accessors below.
//
//	byte 0: kind(3) | widthLog2(2) | user(1) | phys(1) | reserved(1)
//	byte 1: PID
//	bytes 2-3: Extra, little endian
//	bytes 4-7: Addr, little endian
//
// Pack and the accessors are the only code that knows these positions;
// the codecs go through them and the constants below.
type Word uint64

// RecordBytes is the packed record size in the reserved physical buffer.
const RecordBytes = 8

const (
	kindMask     = 7
	widthShift   = 3
	widthMask    = 3 << widthShift
	flagUser     = 1 << 5
	flagPhys     = 1 << 6
	flagReserved = 1 << 7
	pidShift     = 8
	extraShift   = 16
	addrShift    = 32
)

// Pack returns one record in the packed layout — the value the
// collector's trace store writes with a single 8-byte store. The width
// field holds log2 of the width, so widths 1, 2, 4 and 8 round-trip and
// anything else packs as 1.
func Pack(k Kind, addr uint32, width, pid uint8, user, phys bool, extra uint16) Word {
	var wl Word
	switch width {
	case 2:
		wl = 1
	case 4:
		wl = 2
	case 8:
		wl = 3
	}
	w := Word(k)&kindMask | wl<<widthShift
	if user {
		w |= flagUser
	}
	if phys {
		w |= flagPhys
	}
	return w | Word(pid)<<pidShift | Word(extra)<<extraShift | Word(addr)<<addrShift
}

// Kind returns the record kind.
func (w Word) Kind() Kind { return Kind(w & kindMask) }

// Header returns the record's first byte, which holds its Kind, Width,
// User and Phys and nothing else the accessors read: records with equal
// headers agree in all four, and Word(h) reads them back for header h.
// A 256-entry table indexed by Header classifies a record in one load.
func (w Word) Header() uint8 { return uint8(w) }

// Addr returns the referenced address: virtual, or physical when Phys.
func (w Word) Addr() uint32 { return uint32(w >> addrShift) }

// Width returns the reference width in bytes (1, 2, 4 or 8). Marker
// records carry no reference width and read 0.
func (w Word) Width() uint8 {
	if !w.Kind().IsMemRef() {
		return 0
	}
	return 1 << w.widthCode()
}

// widthCode returns the stored width field whatever the kind: Lint
// reads it to catch a marker emitted through the memory-reference path.
func (w Word) widthCode() uint8 { return uint8(w>>widthShift) & 3 }

// PID returns the process the record is attributed to.
func (w Word) PID() uint8 { return uint8(w >> pidShift & 0xff) }

// User reports whether the access was made in user mode.
func (w Word) User() bool { return w&flagUser != 0 }

// Phys reports whether Addr is physical (system PTE and PCB references).
func (w Word) Phys() bool { return w&flagPhys != 0 }

// Extra returns the marker payload: the incoming PID of a context
// switch, the SCB vector of an exception.
func (w Word) Extra() uint16 { return uint16(w >> extraShift) }

func (w Word) String() string {
	mode := "k"
	if w.User() {
		mode = "u"
	}
	space := ""
	if w.Phys() {
		space = " phys"
	}
	s := fmt.Sprintf("%-9s pid=%-2d %s %08x w%d%s", w.Kind(), w.PID(), mode, w.Addr(), w.Width(), space)
	if k := w.Kind(); k == KindCtxSwitch || k == KindException {
		s += fmt.Sprintf(" extra=%#x", w.Extra())
	}
	return s
}

// canonical clears the bits no field reads — byte 0's reserved bit and
// a marker's width field — so a decoded record is exactly Pack of its
// fields and two decodes of one capture compare equal.
func (w Word) canonical() Word {
	w &^= flagReserved
	if !w.Kind().IsMemRef() {
		w &^= widthMask
	}
	return w
}

// wordAt reads the packed record at the start of b, canonical.
func wordAt(b []byte) Word { return Word(binary.LittleEndian.Uint64(b)).canonical() }

// ParseBuffer copies the packed records out of a raw trace-buffer image
// (length must be a multiple of RecordBytes), canonical like every
// decoded record.
func ParseBuffer(buf []byte) ([]Word, error) {
	if len(buf)%RecordBytes != 0 {
		return nil, fmt.Errorf("trace: buffer length %d not a record multiple", len(buf))
	}
	out := make([]Word, len(buf)/RecordBytes)
	for i := range out {
		out[i] = wordAt(buf[i*RecordBytes:])
	}
	return out, nil
}

// UserRecord reports whether r belongs to the user-only view of a trace
// — what a user-level tracing tool would have seen. Marker records from
// user context are kept; kernel references, PTE references and kernel
// markers are not. Every user-only filter applies this one predicate.
func UserRecord(r Word) bool {
	return r.User() && r.Kind() != KindPTERead && r.Kind() != KindPTEWrite
}

// FilterUser returns only the records UserRecord keeps.
func FilterUser(recs []Word) []Word {
	out := make([]Word, 0, len(recs))
	for _, r := range recs {
		if UserRecord(r) {
			out = append(out, r)
		}
	}
	return out
}
