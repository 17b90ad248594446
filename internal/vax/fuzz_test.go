package vax

import (
	"strings"
	"testing"
)

// FuzzAssemble: arbitrary source must produce a program or an error,
// never a panic, and any produced program must have consistent symbols.
func FuzzAssemble(f *testing.F) {
	f.Add("\t.org 0x200\nstart:\tmovl #1, r0\n\thalt\n")
	f.Add("x = 1+2*3\n\t.long x\n")
	f.Add("\tmovl (r1)+, -(sp)\n")
	f.Add("a:\tbrb a\n")
	f.Add("\t.ascii \"hi\\n\"\n")
	f.Add("\t.space 10\n\t.align 4\n")
	f.Add("\tmovl @#0x80000000, r0\n")
	f.Add("\tcalls #2, @8(r1)[r2]\n")
	f.Add("\t.byte 'a', 'b'\n")
	f.Add(";;; comment only")
	f.Add("\t.org\nstart = \n")
	f.Add("\tmovl #-1, r0\n\tashl #-31, r0, r1\n")
	f.Add("\t.space 0x4000000\n\t.space 0x4000000\n")
	f.Add("\t.org 0xfffffff0\n\t.space 0x20\nafter:\t.long after\n")
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Assemble(src)
		if err != nil {
			return
		}
		for name, v := range p.Symbols {
			if name == "" {
				t.Fatal("empty symbol name accepted")
			}
			_ = v
		}
		for _, li := range p.Lines {
			if li.Addr < p.Origin || li.Addr+uint32(li.Len) > p.End() {
				t.Fatalf("line info out of image: %+v (origin %#x end %#x)", li, p.Origin, p.End())
			}
		}
	})
}

// FuzzDecodeBytes: arbitrary bytes must decode or error, never panic,
// and a successful decode must report a length within the input.
func FuzzDecodeBytes(f *testing.F) {
	f.Add([]byte{0xD0, 0x01, 0x50})
	f.Add([]byte{0x28, 0x8F, 0x00, 0x01, 0x61, 0x62})
	f.Add([]byte{0xFB, 0x01, 0xEF, 0x00, 0x00, 0x00, 0x00})
	f.Add([]byte{0x41, 0x42, 0x43})
	f.Add([]byte{0xFF})
	f.Fuzz(func(t *testing.T, b []byte) {
		d, err := DecodeBytes(b, 0x1000)
		if err != nil {
			return
		}
		if d.Len <= 0 || d.Len > len(b) {
			t.Fatalf("decoded length %d out of range (input %d)", d.Len, len(b))
		}
		// Rendering must not panic either.
		_ = d.String()
	})
}

// FuzzDisassemble: the resynchronizing disassembler must terminate and
// cover every input byte exactly once.
func FuzzDisassemble(f *testing.F) {
	f.Add([]byte{0x01, 0x00, 0xFF, 0xD0, 0x01, 0x50})
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) > 4096 {
			return
		}
		lines := Disassemble(b, 0)
		if len(b) > 0 && len(lines) == 0 {
			t.Fatal("no output for non-empty input")
		}
		if !strings.HasPrefix(strings.TrimSpace(strings.Join(lines, "\n")), "0") && len(b) > 0 {
			t.Fatalf("first line lacks address: %v", lines[:1])
		}
	})
}
