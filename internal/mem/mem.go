// Package mem models the physical memory of the simulated machine.
//
// Physical memory is a flat byte array with a small amount of structure on
// top: a reserved region at the top of memory that the ATUM microcode
// patches use as the trace buffer (the operating system is configured so
// it never allocates frames there), and a one-register memory-mapped
// console transmit port. All CPU and microcode accesses go through this
// package; it performs bounds checking only — protection is the MMU's job.
package mem

import (
	"encoding/binary"
	"fmt"
)

// PageSize is the VAX page size in bytes (2^PageShift).
const (
	PageShift = 9
	PageSize  = 1 << PageShift // 512
)

// ConsoleTX is the physical address of the memory-mapped console transmit
// register. A byte stored here is appended to the console output. It sits
// in I/O space, above any legal RAM size.
const ConsoleTX = 0xFFFF0000

// ErrBounds is returned (wrapped) for accesses outside physical memory.
type BoundsError struct {
	PA   uint32
	Size int
}

func (e *BoundsError) Error() string {
	return fmt.Sprintf("mem: physical access out of bounds: pa=%#x size=%d", e.PA, e.Size)
}

// Physical is the machine's physical memory.
//
// The top ReservedBytes of RAM form the reserved region. Reads and writes
// there are legal (the ATUM patches and the extraction tool use them) but
// the kernel's frame allocator is built to exclude them.
//
// On Unix, RAM is an anonymous mapping whose pages are faulted in when
// first written, and it is unmapped once the Physical is unreachable.
// Race builds, and other platforms, keep RAM on the Go heap.
type Physical struct {
	ram      []byte
	reserved uint32 // bytes reserved at top
	console  []byte // bytes written to ConsoleTX
}

// NewPhysical allocates size bytes of zeroed RAM with reserved bytes held
// back at the top for the trace region. size and reserved must be page
// multiples. A RAM mapping the host refuses is an error.
func NewPhysical(size, reserved uint32) (*Physical, error) {
	if size == 0 || size%PageSize != 0 {
		return nil, fmt.Errorf("mem: size %#x is not a positive page multiple", size)
	}
	if reserved%PageSize != 0 || reserved > size {
		return nil, fmt.Errorf("mem: reserved %#x invalid for size %#x", reserved, size)
	}
	p := &Physical{reserved: reserved}
	if err := newRAM(p, size); err != nil {
		return nil, err
	}
	return p, nil
}

// Size returns the total RAM size in bytes.
func (p *Physical) Size() uint32 { return uint32(len(p.ram)) }

// ReservedBase returns the physical address where the reserved (trace)
// region begins.
func (p *Physical) ReservedBase() uint32 { return uint32(len(p.ram)) - p.reserved }

// ReservedSize returns the size in bytes of the reserved region.
func (p *Physical) ReservedSize() uint32 { return p.reserved }

// Frames returns the number of page frames of usable (non-reserved) RAM.
func (p *Physical) Frames() uint32 { return p.ReservedBase() / PageSize }

// Load8 loads one byte of physical memory.
func (p *Physical) Load8(pa uint32) (byte, error) {
	if pa >= uint32(len(p.ram)) {
		return 0, &BoundsError{PA: pa, Size: 1}
	}
	return p.ram[pa], nil
}

// Load16 loads a 16-bit little-endian word.
func (p *Physical) Load16(pa uint32) (uint16, error) {
	if pa+1 < pa || pa+2 > uint32(len(p.ram)) {
		return 0, &BoundsError{PA: pa, Size: 2}
	}
	return binary.LittleEndian.Uint16(p.ram[pa:]), nil
}

// Load32 loads a 32-bit little-endian longword.
func (p *Physical) Load32(pa uint32) (uint32, error) {
	if pa+3 < pa || pa+4 > uint32(len(p.ram)) {
		return 0, &BoundsError{PA: pa, Size: 4}
	}
	return binary.LittleEndian.Uint32(p.ram[pa:]), nil
}

// Store8 stores one byte. A store to ConsoleTX appends to the console.
func (p *Physical) Store8(pa uint32, v byte) error {
	if pa == ConsoleTX {
		p.console = append(p.console, v)
		return nil
	}
	if pa >= uint32(len(p.ram)) {
		return &BoundsError{PA: pa, Size: 1}
	}
	p.ram[pa] = v
	return nil
}

// Store16 stores a 16-bit little-endian word.
func (p *Physical) Store16(pa uint32, v uint16) error {
	if pa+1 < pa || pa+2 > uint32(len(p.ram)) {
		return &BoundsError{PA: pa, Size: 2}
	}
	binary.LittleEndian.PutUint16(p.ram[pa:], v)
	return nil
}

// Store32 stores a 32-bit little-endian longword.
func (p *Physical) Store32(pa uint32, v uint32) error {
	if pa == ConsoleTX { // longword store of a character code is tolerated
		p.console = append(p.console, byte(v))
		return nil
	}
	if pa+3 < pa || pa+4 > uint32(len(p.ram)) {
		return &BoundsError{PA: pa, Size: 4}
	}
	binary.LittleEndian.PutUint32(p.ram[pa:], v)
	return nil
}

// Store64 stores a 64-bit little-endian quadword: one packed trace
// record, in the ATUM trace store's single write.
func (p *Physical) Store64(pa uint32, v uint64) error {
	if pa+7 < pa || pa+8 > uint32(len(p.ram)) {
		return &BoundsError{PA: pa, Size: 8}
	}
	binary.LittleEndian.PutUint64(p.ram[pa:], v)
	return nil
}

// LoadBytes copies b into physical memory at pa (bootstrap/loader use).
func (p *Physical) LoadBytes(pa uint32, b []byte) error {
	if pa+uint32(len(b)) < pa || pa+uint32(len(b)) > uint32(len(p.ram)) {
		return &BoundsError{PA: pa, Size: len(b)}
	}
	copy(p.ram[pa:], b)
	return nil
}

// Bytes returns a read-only view of n bytes at pa (extraction-tool use).
// The view aliases RAM, so it is valid only while p is reachable: once
// p is collected, its RAM is unmapped.
func (p *Physical) Bytes(pa, n uint32) ([]byte, error) {
	if pa+n < pa || pa+n > uint32(len(p.ram)) {
		return nil, &BoundsError{PA: pa, Size: int(n)}
	}
	return p.ram[pa : pa+n : pa+n], nil
}

// Console returns everything written to the console transmit register.
func (p *Physical) Console() []byte { return p.console }

// ResetConsole clears captured console output.
func (p *Physical) ResetConsole() { p.console = nil }
