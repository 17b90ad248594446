package vax

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

func mustAssemble(t *testing.T, src string) *Program {
	t.Helper()
	p, err := Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return p
}

func TestAssembleBasicEncoding(t *testing.T) {
	p := mustAssemble(t, `
	.org 0x200
start:	movl	#10, r0
	nop
`)
	if p.Origin != 0x200 {
		t.Fatalf("origin = %#x, want 0x200", p.Origin)
	}
	// movl #10, r0 => D0 0A 50 ; nop => 01
	want := []byte{0xD0, 0x0A, 0x50, 0x01}
	if len(p.Bytes) != len(want) {
		t.Fatalf("bytes = % x, want % x", p.Bytes, want)
	}
	for i := range want {
		if p.Bytes[i] != want[i] {
			t.Fatalf("bytes = % x, want % x", p.Bytes, want)
		}
	}
	if v := p.MustSymbol("start"); v != 0x200 {
		t.Fatalf("start = %#x, want 0x200", v)
	}
}

func TestAssembleShortLiteralVsImmediate(t *testing.T) {
	p := mustAssemble(t, `
	movl	#63, r0
	movl	#64, r1
`)
	// #63 -> short literal 0x3F; #64 -> 8F 40 00 00 00 immediate
	if p.Bytes[1] != 0x3F {
		t.Errorf("short literal byte = %#x, want 0x3f", p.Bytes[1])
	}
	if p.Bytes[4] != 0x8F || p.Bytes[5] != 0x40 {
		t.Errorf("immediate encoding = % x", p.Bytes[3:10])
	}
}

func TestAssembleAddressingModes(t *testing.T) {
	src := `
	.org 0x1000
	movl	(r1), r2
	movl	(r3)+, r4
	movl	-(r5), r6
	movl	@(r7)+, r8
	movl	4(r9), r10
	movl	@8(r11), r0
	movl	300(r1), r2
	movl	0x10000(r1), r2
	movb	(r1)+, -(sp)
	clrl	tab[r3]
	movl	@#0x80000000, r0
tab:	.long	0
`
	p := mustAssemble(t, src)
	// Spot-check a few specifier bytes by decoding the stream back.
	lines := Disassemble(p.Bytes, p.Origin)
	joined := strings.Join(lines, "\n")
	for _, want := range []string{
		"(r1)", "(r3)+", "-(r5)", "@(r7)+", "4(r9)", "@8(r11)",
		"300(r1)", "65536(r1)", "-(sp)", "[r3]", "@#0x80000000",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("disassembly missing %q:\n%s", want, joined)
		}
	}
}

func TestAssembleBranchesAndLabels(t *testing.T) {
	p := mustAssemble(t, `
	.org 0
top:	decl	r0
	bneq	top
	brw	far
	.space	200
far:	halt
`)
	d, err := DecodeBytes(p.Bytes[2:], 2)
	if err != nil {
		t.Fatalf("decode bneq: %v", err)
	}
	if d.Info.Name != "bneq" {
		t.Fatalf("opcode = %s, want bneq", d.Info.Name)
	}
	// bneq at 2, displacement field 1 byte: target = 4 + disp = 0 -> disp = -4
	if d.Operands[0].Disp != -4 {
		t.Errorf("bneq disp = %d, want -4", d.Operands[0].Disp)
	}
}

func TestAssembleBranchOutOfRange(t *testing.T) {
	_, err := Assemble(`
	brb	far
	.space	500
far:	halt
`)
	if err == nil || !strings.Contains(err.Error(), "out of byte range") {
		t.Fatalf("want out-of-range error, got %v", err)
	}
}

func TestAssembleEquatesAndExpressions(t *testing.T) {
	p := mustAssemble(t, `
base	=	0x1000
size	=	8*4
	.org	base
	movl	#base+size, r0
	.long	size<<2, size|1, ~0
`)
	if p.Origin != 0x1000 {
		t.Fatalf("origin = %#x", p.Origin)
	}
	// movl #0x1020, r0 => D0 8F 20 10 00 00 50
	if p.Bytes[0] != 0xD0 || p.Bytes[1] != 0x8F {
		t.Fatalf("immediate form not used: % x", p.Bytes[:7])
	}
	got := uint32(p.Bytes[2]) | uint32(p.Bytes[3])<<8
	if got != 0x1020 {
		t.Errorf("immediate = %#x, want 0x1020", got)
	}
}

func TestAssembleDataDirectives(t *testing.T) {
	p := mustAssemble(t, `
	.byte	1, 2, 3
	.align	4
	.word	0x1234
	.long	0xdeadbeef
	.asciz	"hi\n"
	.space	5
`)
	if p.Bytes[0] != 1 || p.Bytes[1] != 2 || p.Bytes[2] != 3 {
		t.Errorf("bytes: % x", p.Bytes[:3])
	}
	if p.Bytes[3] != 0 { // align padding
		t.Errorf("align pad: % x", p.Bytes[:4])
	}
	if p.Bytes[4] != 0x34 || p.Bytes[5] != 0x12 {
		t.Errorf("word: % x", p.Bytes[4:6])
	}
	if p.Bytes[6] != 0xEF || p.Bytes[9] != 0xDE {
		t.Errorf("long: % x", p.Bytes[6:10])
	}
	if string(p.Bytes[10:13]) != "hi\n" || p.Bytes[13] != 0 {
		t.Errorf("asciz: % x", p.Bytes[10:14])
	}
	if len(p.Bytes) != 19 {
		t.Errorf("total len = %d, want 19", len(p.Bytes))
	}
}

func TestListing(t *testing.T) {
	src := `; a comment line
	.org 0x1000
start:	movl	#1, r0
	halt
msg:	.ascii	"hi"
`
	p := mustAssemble(t, src)
	if len(p.Lines) != 3 {
		t.Fatalf("Lines = %v, want 3 emitting lines", p.Lines)
	}
	if p.Lines[0].Addr != 0x1000 || p.Lines[0].Len != 3 {
		t.Errorf("first line info = %+v", p.Lines[0])
	}
	lst := Listing(p, src)
	if !strings.Contains(lst, "00001000  d0 01 50") {
		t.Errorf("listing missing movl bytes:\n%s", lst)
	}
	if !strings.Contains(lst, "; a comment line") {
		t.Errorf("listing dropped non-emitting lines:\n%s", lst)
	}
	if !strings.Contains(lst, `.ascii	"hi"`) {
		t.Errorf("listing missing data line:\n%s", lst)
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []struct {
		src, want string
	}{
		{"\tfrobnicate r0\n", "unknown instruction"},
		{"\tmovl r0\n", "takes 2 operands"},
		{"\tmovl #1, #2\n", "write context"},
		{"\tmovl r0, undefined_sym\n", "undefined symbol"},
		{"x = 1\nx = 2\n", "redefined"},
		{"\t.align 3\n", "power of two"},
		{"\tmovl (r1)[pc], r0\n", "bad index register"},
	}
	for _, c := range cases {
		_, err := Assemble(c.src)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Assemble(%q) error = %v, want containing %q", c.src, err, c.want)
		}
	}
}

// TestAssembleBounds: a line that would carry the location counter past
// 0xffffffff, or grow the image past MaxImageBytes, fails with an
// AsmError naming it, before any image is allocated; lines that stay
// just inside either bound assemble.
func TestAssembleBounds(t *testing.T) {
	cases := []struct {
		src  string
		line int // 0: assembles
		want string
	}{
		{"\t.space 0x4000000\n\t.space 0x4000000\n", 1, "image grows past"},
		{"\t.space 0xffffffff\n", 1, "image grows past"},
		{"\t.byte 1\n\t.space 0xffffffff\n", 2, "location counter passes 0xffffffff"},
		{"\t.org 0xfffffff0\n\t.space 0x20\nafter:\t.long after\n", 2, "location counter passes 0xffffffff"},
		{"\t.org 0xfffffff0\n\t.space 0x10\n", 2, "location counter passes"},
		{"\t.org 0xfffffffd\n\t.align 4\n", 2, "location counter passes"},
		{"\t.org 0xfffffffe\n\tmovl r0, r1\n", 2, "location counter passes"},
		{"\t.org 0xfffffff0\n\t.space 0xf\n", 0, ""},
		{fmt.Sprintf("\t.space %d\n", MaxImageBytes), 0, ""},
		{fmt.Sprintf("\t.space %d\n\t.byte 1\n", MaxImageBytes), 2, "image grows past"},
		{"\t.byte 1\n\t.align 0x80000000\n", 2, "image grows past"},
	}
	for _, c := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p, err := Assemble(c.src)
		runtime.ReadMemStats(&after)
		if c.line == 0 {
			if err != nil {
				t.Errorf("Assemble(%.40q): %v", c.src, err)
			} else if p.End() < p.Origin {
				t.Errorf("Assemble(%.40q): image %#x..%#x wraps", c.src, p.Origin, p.End())
			}
			continue
		}
		var es AsmErrors
		if !errors.As(err, &es) || len(es) != 1 || es[0].Line != c.line || !strings.Contains(es[0].Msg, c.want) {
			t.Errorf("Assemble(%.40q) error = %v, want one on line %d containing %q", c.src, err, c.line, c.want)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("Assemble(%.40q) allocated %d bytes before failing", c.src, grew)
		}
	}
}

func TestRoundTripDecode(t *testing.T) {
	src := `
	.org 0x400
	addl3	r1, r2, r3
	subl2	#5, r4
	mull3	8(r0), r1, -(sp)
	ashl	#2, r1, r2
	movc3	#16, (r1), (r2)
	calls	#0, next
next:	ret
	chmk	#4
	rei
	halt
`
	p := mustAssemble(t, src)
	off := 0
	names := []string{"addl3", "subl2", "mull3", "ashl", "movc3", "calls", "ret", "chmk", "rei", "halt"}
	for _, want := range names {
		d, err := DecodeBytes(p.Bytes[off:], p.Origin+uint32(off))
		if err != nil {
			t.Fatalf("decode at %#x: %v", p.Origin+uint32(off), err)
		}
		if d.Info.Name != want {
			t.Fatalf("decoded %s, want %s", d.Info.Name, want)
		}
		off += d.Len
	}
	if off != len(p.Bytes) {
		t.Errorf("consumed %d of %d bytes", off, len(p.Bytes))
	}
}

func TestOperandAccessorsAndNames(t *testing.T) {
	if RegName(14) != "sp" || RegName(15) != "pc" || RegName(2) != "r2" {
		t.Error("RegName wrong")
	}
	if CurMode(0) != ModeKernel {
		t.Error("CurMode(0) not kernel")
	}
	psl := uint32(ModeUser) << PSLCurModShift
	if CurMode(psl) != ModeUser {
		t.Error("CurMode user wrong")
	}
	if IPL(22<<PSLIPLShift) != 22 {
		t.Error("IPL extraction wrong")
	}
}

func TestInstructionTableConsistency(t *testing.T) {
	n := 0
	for op, ii := range Instructions {
		if ii == nil {
			continue
		}
		n++
		if int(ii.Opcode) != op {
			t.Errorf("%s: table slot %#x holds opcode %#x", ii.Name, op, ii.Opcode)
		}
		if ByName[ii.Name] != ii {
			t.Errorf("%s: ByName mismatch", ii.Name)
		}
		for _, spec := range ii.Operands {
			if spec.Access == AccBranch && spec.Width == L {
				t.Errorf("%s: longword branch displacement not supported", ii.Name)
			}
		}
	}
	if n < 90 {
		t.Errorf("only %d opcodes defined, want >= 90", n)
	}
	// ByName may exceed the table count by the alias mnemonics.
	if len(ByName) < n {
		t.Errorf("ByName has %d entries, table has %d", len(ByName), n)
	}
	if ByName["bgequ"] != ByName["bcc"] || ByName["blssu"] != ByName["bcs"] {
		t.Error("unsigned branch aliases missing")
	}
}
