// Package workload provides the benchmark programs that run under the
// simulated kernel — the stand-ins for the paper's VMS/Ultrix workloads.
// All are written in the machine's assembly and exercise distinct
// reference behaviours: dense sequential scans, pointer chasing, deep
// call stacks, block copies, demand paging, and syscall traffic.
package workload

import (
	"fmt"
	"sync"

	"atum/internal/kernel"
	"atum/internal/vax"
)

// Workload is one runnable benchmark program.
type Workload struct {
	Name string
	Desc string
	// Expect is the console output the program must produce (used by
	// tests to verify execution correctness under every tracing regime).
	Expect    string
	HeapPages uint32
	Source    string
}

// programs holds every workload image assembled so far, keyed by its
// source text.
var (
	programsMu sync.Mutex
	programs   = map[string]*vax.Program{}
)

// Program returns the workload's assembled image. Each source is
// assembled once per process, and every caller gets the same image: it
// is shared and read-only.
func (w Workload) Program() (*vax.Program, error) {
	programsMu.Lock()
	defer programsMu.Unlock()
	if p, ok := programs[w.Source]; ok {
		return p, nil
	}
	p, err := vax.Assemble(w.Source + libSource)
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", w.Name, err)
	}
	programs[w.Source] = p
	return p, nil
}

// libSource is the runtime library appended to every workload: console
// print helpers built on the write system call.
const libSource = `
; ---- runtime library ----
; prnum: print r0 as unsigned decimal (clobbers nothing)
prnum:	pushr	#0x0f		; r0-r3
	moval	numbuf+11, r2
pn1:	decl	r2
	ediv	#10, r0, r1, r3	; r1 = r0/10, r3 = r0%10
	addl2	#0x30, r3
	movb	r3, (r2)
	movl	r1, r0
	bneq	pn1
	moval	numbuf+11, r1
	subl3	r2, r1, r3	; length
	movl	r2, r1
	movl	r3, r2
	chmk	#1
	popr	#0x0f
	rsb

; prnl: print a newline (clobbers nothing)
prnl:	pushr	#0x06		; r1, r2
	moval	nlch, r1
	movl	#1, r2
	chmk	#1
	popr	#0x06
	rsb

numbuf:	.space	12
nlch:	.byte	10
`

// All is the workload suite, in canonical order.
var All = []Workload{
	{
		Name:      "sort",
		Desc:      "insertion sort of 200 pseudo-random longwords",
		Expect:    "sorted\n",
		HeapPages: 8,
		Source: `
	.org	0x200
start:	movl	#12345, r7	; LCG seed
	clrl	r0
	moval	arr, r1
fill:	mull3	r7, #1103515245, r7
	addl2	#12345, r7
	bicl3	#0x80000000, r7, r2
	movl	r2, (r1)+
	aoblss	#200, r0, fill
	movl	#1, r3		; insertion sort: i
outer:	movl	r3, r4		; j
inner:	tstl	r4
	bleq	onext
	moval	arr, r1
	movl	(r1)[r4], r5
	subl3	#1, r4, r6
	movl	(r1)[r6], r8
	cmpl	r8, r5
	bleq	onext
	movl	r8, (r1)[r4]
	movl	r5, (r1)[r6]
	decl	r4
	brb	inner
onext:	aoblss	#200, r3, outer
	clrl	r0		; verify ascending
	moval	arr, r1
	clrl	r9
vloop:	movl	(r1)+, r2
	cmpl	r9, r2
	bgtr	vfail
	movl	r2, r9
	aoblss	#200, r0, vloop
	moval	okmsg, r1
	movl	#7, r2
	chmk	#1
vfail:	chmk	#0
okmsg:	.ascii	"sorted\n"
	.align	4
arr:	.space	4*200
`,
	},
	{
		Name:      "matmul",
		Desc:      "16x16 integer matrix multiply with checksum",
		Expect:    "254112\n",
		HeapPages: 8,
		Source: `
	.org	0x200
start:	clrl	r0		; build A[i][j]=i+j, B[i][j]=i-j
mi:	clrl	r1
mj:	mull3	r0, #16, r3
	addl2	r1, r3
	addl3	r0, r1, r2
	moval	amat, r4
	movl	r2, (r4)[r3]
	subl3	r1, r0, r2
	moval	bmat, r4
	movl	r2, (r4)[r3]
	aoblss	#16, r1, mj
	aoblss	#16, r0, mi
	clrl	r0		; C = A*B
pi:	clrl	r1
pj:	clrl	r6
	clrl	r2
pk:	mull3	r0, #16, r3
	addl2	r2, r3
	moval	amat, r4
	movl	(r4)[r3], r5
	mull3	r2, #16, r3
	addl2	r1, r3
	moval	bmat, r4
	mull2	(r4)[r3], r5
	addl2	r5, r6
	aoblss	#16, r2, pk
	mull3	r0, #16, r3
	addl2	r1, r3
	moval	cmat, r4
	movl	r6, (r4)[r3]
	aoblss	#16, r1, pj
	incl	r0
	cmpl	r0, #16
	bgequ	psum
	brw	pi
psum:	clrl	r0		; checksum of |C|
	clrl	r6
	moval	cmat, r4
cs:	movl	(r4)+, r2
	bgeq	cs1
	mnegl	r2, r2
cs1:	addl2	r2, r6
	aoblss	#256, r0, cs
	movl	r6, r0
	jsb	prnum
	jsb	prnl
	chmk	#0
	.align	4
amat:	.space	4*256
bmat:	.space	4*256
cmat:	.space	4*256
`,
	},
	{
		Name:      "sieve",
		Desc:      "sieve of Eratosthenes, primes below 2000",
		Expect:    "303\n",
		HeapPages: 8,
		Source: `
	.org	0x200
start:	movl	#2, r0
	clrl	r6
ploop:	moval	flags, r1
	movzbl	(r1)[r0], r2
	bneq	pnext
	incl	r6
	addl3	r0, r0, r3
mloop:	cmpl	r3, #2000
	bgequ	pnext
	moval	flags, r1
	movb	#1, (r1)[r3]
	addl2	r0, r3
	brb	mloop
pnext:	incl	r0
	cmpl	r0, #2000
	blss	ploop
	movl	r6, r0
	jsb	prnum
	jsb	prnl
	chmk	#0
flags:	.space	2000
`,
	},
	{
		Name:      "fib",
		Desc:      "doubly recursive Fibonacci(18) via CALLS frames",
		Expect:    "2584\n",
		HeapPages: 4,
		Source: `
	.org	0x200
start:	pushl	#18
	calls	#1, fib
	jsb	prnum
	jsb	prnl
	chmk	#0

fib:	.word	0x04		; entry mask: save r2
	movl	4(ap), r0
	cmpl	r0, #2
	bgequ	frec
	ret
frec:	subl3	#1, 4(ap), r0
	pushl	r0
	calls	#1, fib
	movl	r0, r2
	subl3	#2, 4(ap), r0
	pushl	r0
	calls	#1, fib
	addl2	r2, r0
	ret
`,
	},
	{
		Name:      "list",
		Desc:      "linked-list build and pointer-chasing traversal (sbrk heap)",
		Expect:    "45150\n",
		HeapPages: 16,
		Source: `
	.org	0x200
start:	movl	#5, r1
	chmk	#2		; sbrk(5 pages)
	movl	r0, r10
	clrl	r9		; head
	movl	#300, r8
build:	movl	r9, (r10)
	movl	r8, 4(r10)
	movl	r10, r9
	addl2	#8, r10
	sobgtr	r8, build
	clrl	r6
	movl	r9, r1
walk:	tstl	r1
	beql	wdone
	addl2	4(r1), r6
	movl	(r1), r1
	brb	walk
wdone:	movl	r6, r0		; 1+2+...+300
	jsb	prnum
	jsb	prnl
	chmk	#0
`,
	},
	{
		Name:      "tree",
		Desc:      "binary-search-tree insert/search of 200 keys (sbrk heap)",
		Expect:    "200\n",
		HeapPages: 16,
		Source: `
	.org	0x200
start:	movl	#8, r1
	chmk	#2		; sbrk(8 pages)
	movl	r0, r10		; bump allocator
	clrl	r9		; root
	movl	#37, r7
	movl	#200, r8
tins:	mull3	r7, #1103515245, r7
	addl2	#12345, r7
	bicl3	#0x80000000, r7, r2
	movl	r10, r3		; new node {key,left,right}
	addl2	#12, r10
	movl	r2, (r3)
	clrl	4(r3)
	clrl	8(r3)
	tstl	r9
	bneq	walkdn
	movl	r3, r9
	brw	tnext
walkdn:	movl	r9, r4
wd1:	cmpl	r2, (r4)
	blss	goleft
	tstl	8(r4)
	beql	setr
	movl	8(r4), r4
	brb	wd1
setr:	movl	r3, 8(r4)
	brw	tnext
goleft:	tstl	4(r4)
	beql	setl
	movl	4(r4), r4
	brb	wd1
setl:	movl	r3, 4(r4)
tnext:	sobgtr	r8, tins
	movl	#37, r7		; search pass
	movl	#200, r8
	clrl	r6
tlk:	mull3	r7, #1103515245, r7
	addl2	#12345, r7
	bicl3	#0x80000000, r7, r2
	movl	r9, r4
slp:	tstl	r4
	beql	snf
	cmpl	r2, (r4)
	beql	sfnd
	blss	sgol
	movl	8(r4), r4
	brb	slp
sgol:	movl	4(r4), r4
	brb	slp
sfnd:	incl	r6
snf:	sobgtr	r8, tlk
	movl	r6, r0
	jsb	prnum
	jsb	prnl
	chmk	#0
`,
	},
	{
		Name:      "hash",
		Desc:      "open-addressing hash table, 300 inserts and lookups",
		Expect:    "300\n",
		HeapPages: 8,
		Source: `
	.org	0x200
start:	movl	#99991, r7
	movl	#300, r8
hins:	mull3	r7, #1103515245, r7
	addl2	#12345, r7
	bicl3	#0x80000000, r7, r2
	bisl2	#1, r2		; keys nonzero
	bicl3	#0xfffffe00, r2, r3
iprob:	moval	htab, r4
	tstl	(r4)[r3]
	beql	islot
	incl	r3
	bicl2	#0xfffffe00, r3
	brb	iprob
islot:	movl	r2, (r4)[r3]
	sobgtr	r8, hins
	movl	#99991, r7	; lookup pass
	movl	#300, r8
	clrl	r6
hlk:	mull3	r7, #1103515245, r7
	addl2	#12345, r7
	bicl3	#0x80000000, r7, r2
	bisl2	#1, r2
	bicl3	#0xfffffe00, r2, r3
lprob:	moval	htab, r4
	movl	(r4)[r3], r5
	beql	lnext
	cmpl	r5, r2
	beql	lfnd
	incl	r3
	bicl2	#0xfffffe00, r3
	brb	lprob
lfnd:	incl	r6
lnext:	sobgtr	r8, hlk
	movl	r6, r0
	jsb	prnum
	jsb	prnl
	chmk	#0
	.align	4
htab:	.space	4*512
`,
	},
	{
		Name:      "qsort",
		Desc:      "recursive quicksort of 150 longwords (CALLS frames + data swaps)",
		Expect:    "qsorted\n",
		HeapPages: 8,
		Source: `
	.org	0x200
start:	movl	#777, r7	; fill with LCG values
	clrl	r0
	moval	arr, r1
qfill:	mull3	r7, #1103515245, r7
	addl2	#12345, r7
	bicl3	#0x80000000, r7, r2
	movl	r2, (r1)+
	aoblss	#150, r0, qfill
	pushl	#149
	pushl	#0
	calls	#2, qsort
	clrl	r0		; verify ascending
	moval	arr, r1
	clrl	r9
qvfy:	movl	(r1)+, r2
	cmpl	r9, r2
	bgtr	qbad
	movl	r2, r9
	aoblss	#150, r0, qvfy
	moval	okm, r1
	movl	#8, r2
	chmk	#1
qbad:	chmk	#0
okm:	.ascii	"qsorted\n"

; qsort(lo, hi): Lomuto partition, pivot = arr[hi]
qsort:	.word	0x7c		; save r2-r6
	movl	4(ap), r2	; lo
	movl	8(ap), r3	; hi
	cmpl	r2, r3
	bgeq	qdone
	moval	arr, r5
	movl	(r5)[r3], r4	; pivot
	subl3	#1, r2, r0	; i
	movl	r2, r1		; j
qpl:	cmpl	r1, r3
	bgequ	qpd
	movl	(r5)[r1], r6
	cmpl	r6, r4
	bgtr	qpn
	incl	r0
	movl	(r5)[r0], r6	; swap arr[i] <-> arr[j]
	pushl	r6
	movl	(r5)[r1], r6
	movl	r6, (r5)[r0]
	movl	(sp)+, r6
	movl	r6, (r5)[r1]
qpn:	incl	r1
	brb	qpl
qpd:	incl	r0		; place pivot: swap arr[i+1] <-> arr[hi]
	movl	(r5)[r0], r6
	pushl	r6
	movl	(r5)[r3], r6
	movl	r6, (r5)[r0]
	movl	(sp)+, r6
	movl	r6, (r5)[r3]
	movl	r0, r6		; pivot index survives the recursion (saved reg)
	subl3	#1, r6, r1
	pushl	r1
	pushl	r2
	calls	#2, qsort	; qsort(lo, p-1)
	addl3	#1, r6, r1
	pushl	r3
	pushl	r1
	calls	#2, qsort	; qsort(p+1, hi)
qdone:	ret
	.align	4
arr:	.space	4*150
`,
	},
	{
		Name:      "hanoi",
		Desc:      "towers of Hanoi(7), deep CALLS recursion",
		Expect:    "127\n",
		HeapPages: 4,
		Source: `
	.org	0x200
start:	pushl	#3		; via
	pushl	#2		; to
	pushl	#1		; from
	pushl	#7		; n
	calls	#4, hanoi
	movl	moves, r0
	jsb	prnum
	jsb	prnl
	chmk	#0

; hanoi(n, from, to, via)
hanoi:	.word	0
	movl	4(ap), r0
	bneq	h1
	ret
h1:	pushl	12(ap)		; via' = to
	pushl	16(ap)		; to'  = via
	pushl	8(ap)		; from' = from
	subl3	#1, 4(ap), r0
	pushl	r0
	calls	#4, hanoi	; hanoi(n-1, from, via, to)
	incl	moves
	pushl	8(ap)		; via' = from
	pushl	12(ap)		; to'  = to
	pushl	16(ap)		; from' = via
	subl3	#1, 4(ap), r0
	pushl	r0
	calls	#4, hanoi	; hanoi(n-1, via, to, from)
	ret
	.align	4
moves:	.long	0
`,
	},
	{
		Name:      "grep",
		Desc:      "substring search with the LOCC/CMPC3 string microcode",
		Expect:    "12\n",
		HeapPages: 4,
		Source: `
	.org	0x200
start:	clrl	r9		; match count
	moval	text, r8	; cursor
	movl	#tlen, r7	; remaining
gloop:	tstl	r7
	bleq	gdone
	locc	#'t', r7, (r8)	; find next 't' (clobbers r0-r2)
	beql	gdone
	movl	r0, r7		; remaining including the 't'
	movl	r1, r8
	cmpl	r7, #3
	blss	gdone
	cmpc3	#3, (r8), pat	; compare "the" (clobbers r0-r3)
	bneq	gnext
	incl	r9
gnext:	incl	r8
	decl	r7
	brb	gloop
gdone:	movl	r9, r0
	jsb	prnum
	jsb	prnl
	chmk	#0
pat:	.ascii	"the"
text:	.ascii	"the cat and the dog and the bird "
	.ascii	"the cat and the dog and the bird "
	.ascii	"the cat and the dog and the bird "
	.ascii	"the cat and the dog and the bird "
tend:
tlen	=	tend-text
`,
	},
	{
		Name:      "queue",
		Desc:      "doubly linked queues via the INSQUE/REMQUE microcode",
		Expect:    "1275\n",
		HeapPages: 4,
		Source: `
	.org	0x200
start:	moval	hdr, r1		; empty header links to itself
	movl	r1, (r1)
	movl	r1, 4(r1)
	moval	elems, r6	; insert 50 elements {flink, blink, id}
	movl	#50, r7
	clrl	r8
qb:	incl	r8
	movl	r8, 8(r6)
	insque	(r6), hdr
	addl2	#12, r6
	sobgtr	r7, qb
	clrl	r9		; drain from the head, summing ids
qr:	movl	hdr, r2		; head element
	moval	hdr, r3
	cmpl	r2, r3
	beql	qd		; queue empty
	remque	(r2), r4
	addl2	8(r2), r9
	brb	qr
qd:	movl	r9, r0		; 1+2+...+50
	jsb	prnum
	jsb	prnl
	chmk	#0
	.align	4
hdr:	.long	0, 0
elems:	.space	12*50
`,
	},
	{
		Name:      "producer",
		Desc:      "pipe producer: streams 100 bytes to the consumer",
		Expect:    "",
		HeapPages: 4,
		Source: `
	.org	0x200
start:	movl	#100, r6
	clrl	r7
ploop:	movb	r7, ch
	moval	ch, r1
	movl	#1, r2
pw:	chmk	#6		; pipewrite (blocks while full)
	tstl	r0
	beql	pw
	incl	r7
	sobgtr	r6, ploop
	chmk	#0
ch:	.byte	0
`,
	},
	{
		Name:      "consumer",
		Desc:      "pipe consumer: sums 100 bytes from the producer",
		Expect:    "4950\n",
		HeapPages: 4,
		Source: `
	.org	0x200
start:	movl	#100, r6
	clrl	r8
cloop:	moval	ch, r1
	movl	#1, r2
	chmk	#7		; piperead (blocks while empty)
	movzbl	ch, r3
	addl2	r3, r8
	sobgtr	r6, cloop
	movl	r8, r0		; 0+1+...+99
	jsb	prnum
	jsb	prnl
	chmk	#0
ch:	.byte	0
`,
	},
	{
		Name:      "pagestress",
		Desc:      "touches a 50KB sbrk region twice; forces paging on small machines",
		Expect:    "OK",
		HeapPages: 128,
		Source: `
	.org	0x200
start:	movl	#100, r1
	chmk	#2		; sbrk(100 pages)
	movl	r0, r7
	movl	#100, r6	; write pass
	movl	r7, r8
	clrl	r9
pw1:	movl	r9, (r8)
	movl	r9, 256(r8)
	addl2	#512, r8
	incl	r9
	sobgtr	r6, pw1
	movl	#100, r6	; verify pass (swap-ins under pressure)
	movl	r7, r8
	clrl	r9
pv:	cmpl	(r8), r9
	bneq	pbad
	cmpl	256(r8), r9
	bneq	pbad
	addl2	#512, r8
	incl	r9
	sobgtr	r6, pv
	moval	okm, r1
	movl	#2, r2
	chmk	#1
	brb	pex
pbad:	moval	badm, r1
	movl	#3, r2
	chmk	#1
pex:	chmk	#0
okm:	.ascii	"OK"
badm:	.ascii	"BAD"
`,
	},
	{
		Name:      "wc",
		Desc:      "word count over embedded text using the SKPC/LOCC string microcode",
		Expect:    "23\n",
		HeapPages: 4,
		Source: `
	.org	0x200
start:	clrl	r9		; word count
	moval	wtext, r8
	movl	#wlen, r7
wloop:	tstl	r7
	bleq	wend
	skpc	#' ', r7, (r8)	; skip leading spaces
	beql	wend		; nothing but spaces left
	movl	r0, r7		; remaining from word start
	movl	r1, r8
	incl	r9		; found a word
	locc	#' ', r7, (r8)	; find its end
	beql	wend		; last word ran to the end
	movl	r0, r7
	movl	r1, r8
	brb	wloop
wend:	movl	r9, r0
	jsb	prnum
	jsb	prnl
	chmk	#0
wtext:	.ascii	"the quick brown fox jumps over the lazy dog "
	.ascii	"pack my box with five dozen liquor jugs "
	.ascii	"how vexingly quick daft zebras jump"
wtend:
wlen	=	wtend-wtext
`,
	},
	{
		Name:      "mandel",
		Desc:      "integer Mandelbrot (8.8 fixed point), renders 32x12 to the console",
		Expect:    "", // checked against a Go reference implementation in tests
		HeapPages: 4,
		Source: `
	.org	0x200
start:	movl	#-288, r10	; cy = -1.125 in 8.8
	movl	#12, r11	; rows
yloop:	moval	rowbuf, r9
	movl	#-576, r8	; cx = -2.25
	movl	#32, r7		; cols
xloop:	clrl	r4		; zx
	clrl	r5		; zy
	movl	#16, r6		; iteration budget
miter:	mull3	r4, r4, r2
	ashl	#-8, r2, r2	; zx^2
	mull3	r5, r5, r3
	ashl	#-8, r3, r3	; zy^2
	addl3	r2, r3, r0
	cmpl	r0, #1024	; |z|^2 > 4.0 ?
	bgtr	mesc
	mull3	r4, r5, r5	; zy' = 2*zx*zy + cy
	ashl	#-7, r5, r5
	addl2	r10, r5
	subl3	r3, r2, r4	; zx' = zx^2 - zy^2 + cx
	addl2	r8, r4
	sobgtr	r6, miter
mesc:	movb	#'*', r3	; r6 = 0: never escaped (inside)
	tstl	r6
	beql	mput
	movb	#'.', r3	; slow escape: boundary ring
	cmpl	r6, #12
	blss	mput
	movb	#' ', r3	; fast escape: outside
mput:	movb	r3, (r9)+
	addl2	#24, r8		; cx += 3.0/32
	sobgtr	r7, xloop
	movb	#10, (r9)+
	moval	rowbuf, r1
	movl	#33, r2
	chmk	#1		; write the row
	addl2	#48, r10	; cy += 2.25/12
	sobgtr	r11, yloop
	chmk	#0
	.align	4
rowbuf:	.space	36
`,
	},
	{
		Name:      "selftime",
		Desc:      "measures its own execution time in clock ticks via uptime()",
		Expect:    "", // output varies with tracing (that is the point)
		HeapPages: 4,
		Source: `
	.org	0x200
start:	chmk	#9		; uptime -> r0
	movl	r0, r10
	movl	#60, r6		; fixed amount of work
work:	movl	#500, r7
spin:	movl	r7, scratch
	movl	scratch, r8
	sobgtr	r7, spin
	sobgtr	r6, work
	chmk	#9
	subl2	r10, r0		; elapsed ticks
	jsb	prnum
	jsb	prnl
	chmk	#0
	.align	4
scratch: .long	0
`,
	},
	{
		Name:      "strops",
		Desc:      "microcoded block copies (MOVC3) shuttling a 256-byte buffer",
		Expect:    "65\n",
		HeapPages: 4,
		Source: `
	.org	0x200
start:	moval	sbuf, r6
	movl	#256, r7
	movl	#65, r8
sfill:	movb	r8, (r6)+
	sobgtr	r7, sfill
	movl	#40, r8
sloop:	movc3	#256, sbuf, dbuf
	movc3	#256, dbuf, sbuf
	sobgtr	r8, sloop
	movzbl	sbuf, r0
	jsb	prnum
	jsb	prnl
	chmk	#0
	.align	4
sbuf:	.space	256
dbuf:	.space	256
`,
	},
}

// ByName finds a workload.
func ByName(name string) (Workload, bool) {
	for _, w := range All {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// Names returns all workload names in canonical order.
func Names() []string {
	out := make([]string, len(All))
	for i, w := range All {
		out[i] = w.Name
	}
	return out
}

// BootMix builds a system running the named workloads as concurrent
// processes. It spawns, finalizes, and returns the system ready to Run.
func BootMix(cfg kernel.Config, names ...string) (*kernel.System, error) {
	sys, err := kernel.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	for _, n := range names {
		w, ok := ByName(n)
		if !ok {
			return nil, fmt.Errorf("workload: unknown %q", n)
		}
		prog, err := w.Program()
		if err != nil {
			return nil, err
		}
		if _, err := sys.Spawn(w.Name, prog, w.HeapPages); err != nil {
			return nil, err
		}
	}
	if err := sys.Finalize(); err != nil {
		return nil, err
	}
	return sys, nil
}

// StandardMix is the four-process multiprogramming mix used by the
// multiprogramming experiments.
var StandardMix = []string{"sort", "sieve", "list", "strops"}

// Mixes are named multi-process combinations. The producer/consumer pair
// must run together (they meet at the kernel pipe).
var Mixes = map[string][]string{
	"standard":  StandardMix,
	"prodcons":  {"producer", "consumer"},
	"kernelish": {"queue", "grep", "hanoi"},
	"everything": {"sort", "matmul", "sieve", "fib", "list", "tree",
		"hash", "strops", "hanoi", "grep", "queue", "producer", "consumer"},
}
