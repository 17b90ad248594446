package vax

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Program is the output of the assembler: a byte image with a load origin
// and the symbol table. The simulator's loaders place Bytes at virtual
// address Origin. The kernel and workload packages assemble each source
// once per process and share that Program with every caller, so a
// Program from them is read-only: loaders copy Bytes and never write it.
type Program struct {
	Origin  uint32
	Bytes   []byte
	Symbols map[string]uint32
	// Lines maps emitting source lines to their image bytes (listings).
	Lines []LineInfo
}

// LineInfo records the bytes one source line emitted.
type LineInfo struct {
	Line int    // 1-based source line number
	Addr uint32 // virtual address of the first byte
	Len  int    // bytes emitted
}

// Symbol returns the value of a defined symbol.
func (p *Program) Symbol(name string) (uint32, bool) {
	v, ok := p.Symbols[name]
	return v, ok
}

// MustSymbol returns the value of a symbol, panicking if undefined. It is
// intended for loaders wiring up well-known entry points.
func (p *Program) MustSymbol(name string) uint32 {
	v, ok := p.Symbols[name]
	if !ok {
		panic("vax: undefined symbol " + name)
	}
	return v
}

// End returns the first virtual address past the image.
func (p *Program) End() uint32 { return p.Origin + uint32(len(p.Bytes)) }

// AsmError is an assembly error tagged with its source line.
type AsmError struct {
	Line int
	Msg  string
}

func (e *AsmError) Error() string { return fmt.Sprintf("line %d: %s", e.Line, e.Msg) }

// AsmErrors collects all errors from an assembly run.
type AsmErrors []*AsmError

func (es AsmErrors) Error() string {
	if len(es) == 1 {
		return es[0].Error()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d assembly errors:", len(es))
	for i, e := range es {
		if i == 8 {
			fmt.Fprintf(&b, "\n\t... and %d more", len(es)-8)
			break
		}
		b.WriteString("\n\t" + e.Error())
	}
	return b.String()
}

// Assemble translates VAX-subset assembly source into a Program.
//
// Syntax summary (a pragmatic MACRO-32 subset):
//
//	label:  mnemonic  operand, operand, ...   ; comment
//	sym     =         expression
//	        .org     expr        set the location counter (once, at the top)
//	        .byte    e, e, ...   emit bytes
//	        .word    e, ...      emit 16-bit words
//	        .long    e, ...      emit 32-bit longwords
//	        .ascii   "text"      emit characters
//	        .asciz   "text"      emit characters + NUL
//	        .space   expr        emit zero bytes
//	        .align   expr        pad with zeros to a power-of-two boundary
//
// Operand forms: #expr (immediate; becomes a short literal when the
// expression is a plain constant 0..63 and the operand is read-access),
// Rn/ap/fp/sp/pc, (Rn), (Rn)+, -(Rn), @(Rn)+, expr(Rn), @expr(Rn),
// @#expr (absolute), bare expr (PC-relative), and any memory form with an
// [Rx] index suffix. Branch operands take a bare expression.
//
// A line that would carry the location counter past 0xffffffff, or grow
// the image past MaxImageBytes, is an error, and assembly stops there.
func Assemble(src string) (*Program, error) {
	a := &assembler{
		symbols: map[string]uint32{},
		known:   map[string]bool{},
	}
	srcLines := strings.Split(src, "\n")
	// Pass 1 sizes everything and collects label values, storing no
	// bytes; pass 2 emits into a buffer of exactly the size pass 1 found.
	var lines []LineInfo
	for pass := 1; pass <= 2; pass++ {
		a.pass = pass
		a.loc = 0
		a.orgSet = false
		if pass == 2 {
			a.out = make([]byte, 0, a.size)
		}
		a.size = 0
		a.errs = a.errs[:0]
		for i, line := range srcLines {
			a.line = i + 1
			before, emitted := a.loc, a.size
			a.doLine(line)
			if a.size == emitted {
				continue
			}
			if uint64(before)+uint64(a.size-emitted) > math.MaxUint32 {
				a.errorf("location counter passes %#x", uint32(math.MaxUint32))
				break
			}
			if a.size > MaxImageBytes {
				a.errorf("image grows past %d bytes", MaxImageBytes)
				break
			}
			if pass == 2 {
				lines = append(lines, LineInfo{Line: i + 1, Addr: before, Len: a.size - emitted})
			}
		}
		if len(a.errs) > 0 {
			return nil, a.errs
		}
		// After pass 1 every label is known.
		for s := range a.symbols {
			a.known[s] = true
		}
	}
	return &Program{Origin: a.origin, Bytes: a.out, Symbols: a.symbols, Lines: lines}, nil
}

// MaxImageBytes bounds the image Assemble builds: 4 MB, half the default
// machine's memory and about 20 times the kernel's image. Pass 1 only
// counts bytes, so a source that asks for more (a short ".space" line
// can ask for 4 GB) fails before pass 2 allocates anything.
const MaxImageBytes = 4 << 20

// Listing renders a MACRO-style assembly listing: address, emitted
// bytes, and the source line. src must be the source the program was
// assembled from.
func Listing(p *Program, src string) string {
	srcLines := strings.Split(src, "\n")
	byLine := map[int]LineInfo{}
	for _, li := range p.Lines {
		byLine[li.Line] = li
	}
	var b strings.Builder
	for i, text := range srcLines {
		li, ok := byLine[i+1]
		if !ok {
			fmt.Fprintf(&b, "%8s  %-24s %s\n", "", "", text)
			continue
		}
		bytes := p.Bytes[li.Addr-p.Origin : li.Addr-p.Origin+uint32(li.Len)]
		hex := ""
		for j, by := range bytes {
			if j == 8 {
				hex += "..."
				break
			}
			hex += fmt.Sprintf("%02x ", by)
		}
		fmt.Fprintf(&b, "%08x  %-24s %s\n", li.Addr, hex, text)
	}
	return b.String()
}

type assembler struct {
	pass    int
	line    int
	loc     uint32 // current virtual address
	origin  uint32
	orgSet  bool
	size    int    // bytes emitted so far in this pass
	out     []byte // the image; filled in pass 2 only
	symbols map[string]uint32
	known   map[string]bool // defined by the end of pass 1
	errs    AsmErrors
	fields  []string // splitArgs' buffer, reused by every line
}

func (a *assembler) errorf(format string, args ...any) {
	a.errs = append(a.errs, &AsmError{Line: a.line, Msg: fmt.Sprintf(format, args...)})
}

func (a *assembler) emit(b ...byte) {
	if a.pass == 2 {
		a.out = append(a.out, b...)
	}
	a.size += len(b)
	a.loc += uint32(len(b))
}

// emitZeros emits n zero bytes without building them first.
func (a *assembler) emitZeros(n uint32) {
	if a.pass == 2 {
		a.out = append(a.out, make([]byte, n)...)
	}
	a.size += int(n)
	a.loc += n
}

func (a *assembler) emitWord(v uint16) {
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], v)
	a.emit(b[:]...)
}

func (a *assembler) emitLong(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	a.emit(b[:]...)
}

func (a *assembler) doLine(raw string) {
	line := stripComment(raw)
	if strings.TrimSpace(line) == "" {
		return
	}

	// Equate: "sym = expr" (sym at line start, no colon).
	if name, expr, ok := splitEquate(line); ok {
		v, known := a.eval(expr)
		if a.pass == 1 && !known {
			a.errorf("equate %s uses undefined symbols", name)
			return
		}
		a.define(name, v)
		return
	}

	// Optional label.
	rest := line
	for {
		trimmed := strings.TrimSpace(rest)
		idx := labelEnd(trimmed)
		if idx < 0 {
			rest = trimmed
			break
		}
		name := trimmed[:idx]
		a.defineLabel(name)
		rest = trimmed[idx+1:]
	}
	if rest == "" {
		return
	}

	mnemonic, args := splitMnemonic(rest)
	if strings.HasPrefix(mnemonic, ".") {
		a.doDirective(mnemonic, args)
		return
	}
	a.doInstruction(mnemonic, args)
}

func (a *assembler) define(name string, v uint32) {
	if a.pass == 1 {
		if _, dup := a.symbols[name]; dup {
			a.errorf("symbol %q redefined", name)
			return
		}
	}
	a.symbols[name] = v
}

func (a *assembler) defineLabel(name string) {
	if !isIdent(name) {
		a.errorf("bad label %q", name)
		return
	}
	if a.pass == 1 {
		a.define(name, a.loc)
	} else if a.symbols[name] != a.loc {
		// Phase error: pass 1 sizing disagreed with pass 2. The sizing
		// rules are deterministic, so this indicates an assembler bug.
		a.errorf("phase error at label %q: pass1=%#x pass2=%#x", name, a.symbols[name], a.loc)
	}
}

func (a *assembler) doDirective(d, args string) {
	switch d {
	case ".org":
		v, known := a.eval(args)
		if !known {
			a.errorf(".org requires a constant expression")
			return
		}
		if a.size != 0 {
			a.errorf(".org must precede emitted code")
			return
		}
		a.origin = v
		a.loc = v
		a.orgSet = true

	case ".byte", ".word", ".long":
		a.fields = splitArgs(a.fields, args)
		for _, f := range a.fields {
			v, known := a.eval(f)
			if a.pass == 2 && !known {
				a.errorf("undefined symbol in %s operand %q", d, f)
			}
			switch d {
			case ".byte":
				a.emit(byte(v))
			case ".word":
				a.emitWord(uint16(v))
			default:
				a.emitLong(v)
			}
		}

	case ".ascii", ".asciz":
		s, err := parseString(strings.TrimSpace(args))
		if err != nil {
			a.errorf("%s: %v", d, err)
			return
		}
		a.emit([]byte(s)...)
		if d == ".asciz" {
			a.emit(0)
		}

	case ".space":
		v, known := a.eval(args)
		if !known {
			a.errorf(".space requires a constant expression")
			return
		}
		a.emitZeros(v)

	case ".align":
		v, known := a.eval(args)
		if !known || v == 0 || v&(v-1) != 0 {
			a.errorf(".align requires a constant power of two")
			return
		}
		a.emitZeros((v - a.loc%v) % v)

	default:
		a.errorf("unknown directive %q", d)
	}
}

func (a *assembler) doInstruction(mnemonic, args string) {
	info, ok := ByName[mnemonic]
	if !ok {
		info, ok = ByName[strings.ToLower(mnemonic)]
	}
	if !ok {
		a.errorf("unknown instruction %q", mnemonic)
		return
	}
	a.fields = splitArgs(a.fields, args)
	if len(a.fields) != len(info.Operands) {
		a.errorf("%s takes %d operands, got %d", info.Name, len(info.Operands), len(a.fields))
		return
	}
	a.emit(info.Opcode)
	for i, f := range a.fields {
		a.encodeOperand(f, info.Operands[i], info.Name)
	}
}

// encodeOperand assembles one operand. Sizing rules are pass-independent:
//   - short literal only for plain constants 0..63 in read context;
//   - displacement width chosen by constant value, long for symbolic;
//   - bare-symbol operands are PC-relative with longword displacement;
//   - branch displacements have the width fixed by the opcode.
func (a *assembler) encodeOperand(text string, spec OperandSpec, mnemonic string) {
	text = strings.TrimSpace(text)
	if text == "" {
		a.errorf("%s: empty operand", mnemonic)
		return
	}

	if spec.Access == AccBranch {
		target, known := a.eval(text)
		disp := int64(0)
		if known {
			// Displacement is relative to the PC after the displacement field.
			disp = int64(int32(target)) - int64(int32(a.loc+uint32(spec.Width)))
		} else if a.pass == 2 {
			a.errorf("%s: undefined branch target %q", mnemonic, text)
		}
		switch spec.Width {
		case B:
			if a.pass == 2 && (disp < -128 || disp > 127) {
				a.errorf("%s: branch to %q out of byte range (%d)", mnemonic, text, disp)
			}
			a.emit(byte(disp))
		case W:
			if a.pass == 2 && (disp < -32768 || disp > 32767) {
				a.errorf("%s: branch to %q out of word range (%d)", mnemonic, text, disp)
			}
			a.emitWord(uint16(disp))
		}
		return
	}

	// Index suffix: base[rx].
	var xreg = -1
	if strings.HasSuffix(text, "]") {
		i := strings.LastIndex(text, "[")
		if i < 0 {
			a.errorf("%s: malformed index suffix in %q", mnemonic, text)
			return
		}
		r, ok := regNum(text[i+1 : len(text)-1])
		if !ok || r == PC {
			a.errorf("%s: bad index register in %q", mnemonic, text)
			return
		}
		xreg = r
		text = strings.TrimSpace(text[:i])
	}
	if xreg >= 0 {
		a.emit(byte(0x40 | xreg))
	}

	switch {
	case strings.HasPrefix(text, "#"):
		if xreg >= 0 {
			a.errorf("%s: immediate may not be indexed", mnemonic)
			return
		}
		if spec.Access == AccWrite || spec.Access == AccModify {
			a.errorf("%s: immediate operand %q in write context", mnemonic, text)
			return
		}
		expr := text[1:]
		v, known := a.eval(expr)
		if a.pass == 2 && !known {
			a.errorf("%s: undefined symbol in %q", mnemonic, text)
		}
		if c, isConst := a.plainConst(expr); isConst && c <= 63 && spec.Access == AccRead {
			a.emit(byte(c)) // short literal
			return
		}
		a.emit(0x80 | PC) // (PC)+ immediate
		switch spec.Width {
		case B:
			a.emit(byte(v))
		case W:
			a.emitWord(uint16(v))
		default:
			a.emitLong(v)
		}

	case strings.HasPrefix(text, "@#"):
		v, known := a.eval(text[2:])
		if a.pass == 2 && !known {
			a.errorf("%s: undefined symbol in %q", mnemonic, text)
		}
		a.emit(0x90 | PC)
		a.emitLong(v)

	case strings.HasPrefix(text, "-(") && strings.HasSuffix(text, ")"):
		r, ok := regNum(text[2 : len(text)-1])
		if !ok {
			a.errorf("%s: bad register in %q", mnemonic, text)
			return
		}
		a.emit(byte(0x70 | r))

	case strings.HasPrefix(text, "@(") && strings.HasSuffix(text, ")+"):
		r, ok := regNum(text[2 : len(text)-2])
		if !ok {
			a.errorf("%s: bad register in %q", mnemonic, text)
			return
		}
		a.emit(byte(0x90 | r))

	case strings.HasPrefix(text, "(") && strings.HasSuffix(text, ")+"):
		r, ok := regNum(text[1 : len(text)-2])
		if !ok {
			a.errorf("%s: bad register in %q", mnemonic, text)
			return
		}
		a.emit(byte(0x80 | r))

	case strings.HasPrefix(text, "(") && strings.HasSuffix(text, ")"):
		r, ok := regNum(text[1 : len(text)-1])
		if !ok {
			a.errorf("%s: bad register in %q", mnemonic, text)
			return
		}
		a.emit(byte(0x60 | r))

	case strings.HasSuffix(text, ")") && strings.Contains(text, "("):
		// expr(Rn) or @expr(Rn)
		deferred := strings.HasPrefix(text, "@")
		body := text
		if deferred {
			body = text[1:]
		}
		i := strings.LastIndex(body, "(")
		r, ok := regNum(body[i+1 : len(body)-1])
		if !ok {
			a.errorf("%s: bad register in %q", mnemonic, text)
			return
		}
		expr := strings.TrimSpace(body[:i])
		v, known := a.eval(expr)
		if a.pass == 2 && !known {
			a.errorf("%s: undefined symbol in %q", mnemonic, text)
		}
		a.emitDisp(int32(v), byte(r), deferred, a.dispIsConst(expr))

	default:
		if r, ok := regNum(text); ok {
			if xreg >= 0 {
				a.errorf("%s: register may not be indexed", mnemonic)
				return
			}
			a.emit(byte(0x50 | r))
			return
		}
		if strings.HasPrefix(text, "@") {
			// @expr: PC-relative deferred.
			v, known := a.eval(text[1:])
			a.emitPCRel(v, known, true, mnemonic, text)
			return
		}
		// Bare expression: PC-relative.
		v, known := a.eval(text)
		a.emitPCRel(v, known, false, mnemonic, text)
	}
}

// dispIsConst reports whether a displacement expression is a plain
// constant, which permits byte/word compression deterministically across
// passes.
func (a *assembler) dispIsConst(expr string) bool {
	_, ok := a.plainConst(expr)
	return ok
}

func (a *assembler) emitDisp(v int32, reg byte, deferred, compressible bool) {
	mode := byte(0xE0) // longword displacement
	if compressible {
		switch {
		case v >= -128 && v <= 127:
			mode = 0xA0
		case v >= -32768 && v <= 32767:
			mode = 0xC0
		}
	}
	if deferred {
		mode |= 0x10
	}
	a.emit(mode | reg)
	switch mode &^ 0x1F {
	case 0xA0:
		a.emit(byte(v))
	case 0xC0:
		a.emitWord(uint16(v))
	default:
		a.emitLong(uint32(v))
	}
}

func (a *assembler) emitPCRel(target uint32, known bool, deferred bool, mnemonic, text string) {
	if a.pass == 2 && !known {
		a.errorf("%s: undefined symbol in %q", mnemonic, text)
	}
	mode := byte(0xE0 | PC)
	if deferred {
		mode = 0xF0 | PC
	}
	a.emit(mode)
	// Displacement relative to PC after the 4-byte field.
	disp := int64(int32(target)) - int64(int32(a.loc+4))
	a.emitLong(uint32(int32(disp)))
}

// ---- expression evaluation ----

// plainConst evaluates expr if it is a pure constant expression (no
// symbols); used for sizing decisions that must not depend on pass.
func (a *assembler) plainConst(expr string) (uint32, bool) {
	p := &exprParser{s: expr}
	v, err := p.parse()
	if err != nil || p.usedSymbol {
		return 0, false
	}
	return v, true
}

// eval evaluates an expression; known is false if it referenced a symbol
// not yet defined (only possible during pass 1).
func (a *assembler) eval(expr string) (v uint32, known bool) {
	p := &exprParser{s: expr, sym: a.symbols, defined: a.known, pass: a.pass, dot: a.loc}
	v, err := p.parse()
	if err != nil {
		a.errorf("%v in %q", err, expr)
		return 0, false
	}
	return v, !p.unknown
}

type exprParser struct {
	s          string
	i          int
	sym        map[string]uint32
	defined    map[string]bool
	pass       int
	dot        uint32
	unknown    bool
	usedSymbol bool
}

func (p *exprParser) parse() (uint32, error) {
	v, err := p.expr()
	if err != nil {
		return 0, err
	}
	p.skipWS()
	if p.i != len(p.s) {
		return 0, fmt.Errorf("trailing %q", p.s[p.i:])
	}
	return v, nil
}

func (p *exprParser) skipWS() {
	for p.i < len(p.s) && (p.s[p.i] == ' ' || p.s[p.i] == '\t') {
		p.i++
	}
}

func (p *exprParser) peek() byte {
	if p.i < len(p.s) {
		return p.s[p.i]
	}
	return 0
}

// expr := shift (('|'|'&'|'^') shift)*
func (p *exprParser) expr() (uint32, error) {
	v, err := p.shift()
	if err != nil {
		return 0, err
	}
	for {
		p.skipWS()
		switch p.peek() {
		case '|':
			p.i++
			r, err := p.shift()
			if err != nil {
				return 0, err
			}
			v |= r
		case '&':
			p.i++
			r, err := p.shift()
			if err != nil {
				return 0, err
			}
			v &= r
		case '^':
			p.i++
			r, err := p.shift()
			if err != nil {
				return 0, err
			}
			v ^= r
		default:
			return v, nil
		}
	}
}

// shift := sum (('<<'|'>>') sum)*
func (p *exprParser) shift() (uint32, error) {
	v, err := p.sum()
	if err != nil {
		return 0, err
	}
	for {
		p.skipWS()
		if strings.HasPrefix(p.s[p.i:], "<<") {
			p.i += 2
			r, err := p.sum()
			if err != nil {
				return 0, err
			}
			v <<= r & 31
		} else if strings.HasPrefix(p.s[p.i:], ">>") {
			p.i += 2
			r, err := p.sum()
			if err != nil {
				return 0, err
			}
			v >>= r & 31
		} else {
			return v, nil
		}
	}
}

// sum := term (('+'|'-') term)*
func (p *exprParser) sum() (uint32, error) {
	v, err := p.term()
	if err != nil {
		return 0, err
	}
	for {
		p.skipWS()
		switch p.peek() {
		case '+':
			p.i++
			r, err := p.term()
			if err != nil {
				return 0, err
			}
			v += r
		case '-':
			p.i++
			r, err := p.term()
			if err != nil {
				return 0, err
			}
			v -= r
		default:
			return v, nil
		}
	}
}

// term := atom (('*'|'/') atom)*
func (p *exprParser) term() (uint32, error) {
	v, err := p.atom()
	if err != nil {
		return 0, err
	}
	for {
		p.skipWS()
		switch p.peek() {
		case '*':
			p.i++
			r, err := p.atom()
			if err != nil {
				return 0, err
			}
			v *= r
		case '/':
			p.i++
			r, err := p.atom()
			if err != nil {
				return 0, err
			}
			if r == 0 {
				return 0, fmt.Errorf("division by zero")
			}
			v /= r
		default:
			return v, nil
		}
	}
}

func (p *exprParser) atom() (uint32, error) {
	p.skipWS()
	switch c := p.peek(); {
	case c == '-':
		p.i++
		v, err := p.atom()
		return -v, err
	case c == '~':
		p.i++
		v, err := p.atom()
		return ^v, err
	case c == '(':
		p.i++
		v, err := p.expr()
		if err != nil {
			return 0, err
		}
		p.skipWS()
		if p.peek() != ')' {
			return 0, fmt.Errorf("missing )")
		}
		p.i++
		return v, nil
	case c == '\'':
		if p.i+2 < len(p.s) && p.s[p.i+2] == '\'' {
			v := uint32(p.s[p.i+1])
			p.i += 3
			return v, nil
		}
		return 0, fmt.Errorf("bad character literal")
	case c == '.':
		p.i++
		p.usedSymbol = true
		return p.dot, nil
	case c >= '0' && c <= '9':
		return p.number()
	case isIdentStart(c):
		return p.symbol()
	default:
		return 0, fmt.Errorf("unexpected %q", string(c))
	}
}

func (p *exprParser) number() (uint32, error) {
	start := p.i
	for p.i < len(p.s) && (isAlnum(p.s[p.i])) {
		p.i++
	}
	text := p.s[start:p.i]
	v, err := strconv.ParseUint(text, 0, 64)
	if err != nil {
		return 0, fmt.Errorf("bad number %q", text)
	}
	return uint32(v), nil
}

func (p *exprParser) symbol() (uint32, error) {
	start := p.i
	for p.i < len(p.s) && isIdentChar(p.s[p.i]) {
		p.i++
	}
	name := p.s[start:p.i]
	p.usedSymbol = true
	if v, ok := p.sym[name]; ok {
		return v, nil
	}
	if p.pass == 1 && !p.defined[name] {
		p.unknown = true
		return 0, nil
	}
	p.unknown = true
	return 0, nil
}

// ---- lexical helpers ----

func stripComment(line string) string {
	inStr := false
	for i := 0; i < len(line); i++ {
		switch line[i] {
		case '"':
			inStr = !inStr
		case ';':
			if !inStr {
				return line[:i]
			}
		case '/':
			if !inStr && i+1 < len(line) && line[i+1] == '/' {
				return line[:i]
			}
		}
	}
	return line
}

func splitEquate(line string) (name, expr string, ok bool) {
	i := strings.IndexByte(line, '=')
	if i < 0 || strings.Contains(line[:i], ":") {
		return "", "", false
	}
	// "<<" or ">>" or "==" in an instruction line can't reach here because
	// instruction lines never contain '=' outside of expressions in
	// operands, which always follow a mnemonic; require the left side to
	// be a single identifier.
	name = strings.TrimSpace(line[:i])
	if !isIdent(name) {
		return "", "", false
	}
	return name, strings.TrimSpace(line[i+1:]), true
}

// labelEnd returns the index of the colon ending a leading label, or -1.
func labelEnd(s string) int {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == ':' {
			if i == 0 {
				return -1
			}
			return i
		}
		if i == 0 && !isIdentStart(c) {
			return -1
		}
		if i > 0 && !isIdentChar(c) {
			return -1
		}
	}
	return -1
}

func splitMnemonic(s string) (mnemonic, args string) {
	s = strings.TrimSpace(s)
	i := strings.IndexAny(s, " \t")
	if i < 0 {
		return s, ""
	}
	return s[:i], strings.TrimSpace(s[i+1:])
}

// splitArgs splits s on commas that are not inside quotes, parens or
// brackets, and returns the trimmed fields in out's storage.
func splitArgs(out []string, s string) []string {
	out = out[:0]
	s = strings.TrimSpace(s)
	if s == "" {
		return out
	}
	depth := 0
	inStr := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			inStr = !inStr
		case '(', '[':
			if !inStr {
				depth++
			}
		case ')', ']':
			if !inStr {
				depth--
			}
		case ',':
			if !inStr && depth == 0 {
				out = append(out, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	out = append(out, strings.TrimSpace(s[start:]))
	return out
}

func parseString(s string) (string, error) {
	if len(s) < 2 || s[0] != '"' || s[len(s)-1] != '"' {
		return "", fmt.Errorf("expected quoted string, got %q", s)
	}
	body := s[1 : len(s)-1]
	var b strings.Builder
	for i := 0; i < len(body); i++ {
		c := body[i]
		if c != '\\' {
			b.WriteByte(c)
			continue
		}
		i++
		if i >= len(body) {
			return "", fmt.Errorf("trailing backslash")
		}
		switch body[i] {
		case 'n':
			b.WriteByte('\n')
		case 't':
			b.WriteByte('\t')
		case 'r':
			b.WriteByte('\r')
		case '0':
			b.WriteByte(0)
		case '\\', '"':
			b.WriteByte(body[i])
		default:
			return "", fmt.Errorf("unknown escape \\%c", body[i])
		}
	}
	return b.String(), nil
}

func regNum(s string) (int, bool) {
	s = strings.ToLower(strings.TrimSpace(s))
	switch s {
	case "ap":
		return AP, true
	case "fp":
		return FP, true
	case "sp":
		return SP, true
	case "pc":
		return PC, true
	}
	// Labels like "resched" start with r too: turn them away before Atoi,
	// whose error would be allocated.
	if len(s) < 2 || s[0] != 'r' || strings.IndexByte("+-0123456789", s[1]) < 0 {
		return 0, false
	}
	n, err := strconv.Atoi(s[1:])
	if err == nil && n >= 0 && n <= 15 {
		return n, true
	}
	return 0, false
}

func isIdentStart(c byte) bool {
	return c == '_' || c == '$' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentChar(c byte) bool { return isIdentStart(c) || (c >= '0' && c <= '9') }

func isAlnum(c byte) bool {
	return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdent(s string) bool {
	if s == "" || !isIdentStart(s[0]) {
		return false
	}
	for i := 1; i < len(s); i++ {
		if !isIdentChar(s[i]) {
			return false
		}
	}
	// Reject register names so "sp = 4" style typos fail loudly.
	if _, isReg := regNum(s); isReg {
		return false
	}
	return true
}

// SymbolsSorted returns symbol names in address order (for listings).
func (p *Program) SymbolsSorted() []string {
	names := make([]string, 0, len(p.Symbols))
	for n := range p.Symbols {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if p.Symbols[names[i]] != p.Symbols[names[j]] {
			return p.Symbols[names[i]] < p.Symbols[names[j]]
		}
		return names[i] < names[j]
	})
	return names
}
