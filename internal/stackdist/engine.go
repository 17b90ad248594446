package stackdist

// topDepth is K, the number of most recently used distinct blocks the
// engine keeps in its move-to-front top. Real traces reuse mostly near
// the top of the stack (98% of the captured 13-process mix's references
// have stack distance 64 or less), so most references end in a short
// scan of one cache-resident array.
const topDepth = 64

// inTop is the table mark of a block held in the top; a zero mark is an
// empty slot, and any other mark is the block's fall-off index.
const inTop = -1

// fibMul is the Fibonacci hashing multiplier (2^64 / golden ratio) the
// block table mixes keys with.
const fibMul = 0x9E3779B97F4A7C15

// entry is one block-table slot.
type entry struct {
	block uint64
	mark  int32
}

// engine is the one-pass Mattson analysis over block numbers: Stream
// feeds it converted records. The LRU stack is held in two parts.
//
// The top is an explicit move-to-front array of the topDepth most
// recently used distinct blocks. A block found at position d has stack
// distance d+1 and touches nothing else.
//
// Below it, blocks are counted, not ordered. A block pushed out of the
// top takes the next fall-off index and a mark in an order-statistics
// Fenwick tree over those indexes. Blocks leave the top in the order of
// their last use, so the deep blocks used more recently than a deep
// block b are exactly the live marks newer than b's: b's stack distance
// is topDepth + (live marks newer than its own) + 1.
//
// A flat open-addressing table maps every block seen to its mark. Each
// top entry carries its table slot, so a fall-off needs no probe; a
// table grow refreshes those slots and the index→slot array. When the
// fall-off index reaches the tree's capacity, compact renumbers the
// live marks through that array, so memory is O(distinct blocks)
// however long the stream runs. Slots and marks are int32: a table of
// 2^31 slots would already take 32 GB.
type engine struct {
	p Profile

	top  [topDepth]uint64 // most recent first
	slot [topDepth]int32  // table slot of each top block
	n    int              // blocks in the top

	tab   []entry // power-of-two size, at most 3/4 full
	mask  uint64
	shift uint // 64 - log2(len(tab))
	used  int  // occupied slots

	tree []int32 // Fenwick tree of live marks over fall-off indexes 1..cap
	idx  []int32 // fall-off index -> table slot of the block given it
	seq  int     // last fall-off index handed out
	deep int     // live marks: distinct blocks below the top
}

// Initial capacities of NewStream's engine: the table grows and the
// tree compacts or grows from these as the stream requires.
const (
	defaultTableSlots = 1 << 10
	defaultTreeCap    = 1 << 12
)

// newEngine returns an empty engine with the given initial table size
// and tree capacity, both powers of two.
func newEngine(tableSlots, treeCap int) engine {
	e := engine{
		tab:   make([]entry, tableSlots),
		mask:  uint64(tableSlots - 1),
		shift: 64,
		tree:  make([]int32, treeCap+1),
		idx:   make([]int32, treeCap+1),
	}
	for s := tableSlots; s > 1; s >>= 1 {
		e.shift--
	}
	return e
}

// add observes one block reference.
func (e *engine) add(b uint64) {
	e.p.Total++
	if b == e.top[0] && e.n > 0 {
		e.p.observe(1)
		return
	}
	d := e.find(b)
	if d >= e.n {
		e.below(b)
		return
	}
	e.p.observe(d + 1)
	// Most hits are shallow: an element loop beats a memmove call.
	s := e.slot[d]
	for ; d > 0; d-- {
		e.top[d], e.slot[d] = e.top[d-1], e.slot[d-1]
	}
	e.top[0], e.slot[0] = b, s
}

// find returns the first position of b in the whole top array, or
// topDepth. It scans eight entries per branch-light step; a match at or
// past n (an unused entry) means b is not in the top, since the scan
// reaches every used entry first.
func (e *engine) find(b uint64) int {
	for d := 0; d < topDepth; d += 8 {
		t := (*[8]uint64)(e.top[d : d+8])
		if t[0] == b || t[1] == b || t[2] == b || t[3] == b ||
			t[4] == b || t[5] == b || t[6] == b || t[7] == b {
			for e.top[d] != b {
				d++
			}
			return d
		}
	}
	return topDepth
}

// below handles a reference that missed the top: a deep reuse or a
// first reference. Either way b enters the top and, once the top is
// full, its last block falls off.
func (e *engine) below(b uint64) {
	s, found := e.lookup(b)
	if found {
		m := int(e.tab[s].mark)
		e.p.observe(topDepth + e.deep - e.prefix(m) + 1)
		e.addMark(m, -1)
		e.deep--
	} else {
		e.p.Cold++
		if (e.used+1)*4 > len(e.tab)*3 {
			e.grow()
			s, _ = e.lookup(b)
		}
		e.tab[s].block = b
		e.used++
	}
	// Marked before any fall-off: a compaction must not see b's old mark
	// as live.
	e.tab[s].mark = inTop
	if e.n < topDepth {
		e.n++
	} else {
		e.fallOff(int(e.slot[topDepth-1]))
	}
	copy(e.top[1:e.n], e.top[:e.n-1])
	copy(e.slot[1:e.n], e.slot[:e.n-1])
	e.top[0], e.slot[0] = b, int32(s)
}

// lookup returns the slot holding b, or the empty slot where b belongs,
// and whether b is present.
func (e *engine) lookup(b uint64) (int, bool) {
	i := b * fibMul >> e.shift
	for {
		en := &e.tab[i]
		if en.mark == 0 {
			return int(i), false
		}
		if en.block == b {
			return int(i), true
		}
		i = (i + 1) & e.mask
	}
}

// grow doubles the table, then refreshes the slots the top and the
// index→slot array hold.
func (e *engine) grow() {
	old := e.tab
	e.tab = make([]entry, 2*len(old))
	e.mask = uint64(len(e.tab) - 1)
	e.shift--
	for _, en := range old {
		if en.mark == 0 {
			continue
		}
		i := en.block * fibMul >> e.shift
		for e.tab[i].mark != 0 {
			i = (i + 1) & e.mask
		}
		e.tab[i] = en
		if en.mark > 0 {
			e.idx[en.mark] = int32(i)
		}
	}
	for d, b := range e.top[:e.n] {
		s, _ := e.lookup(b)
		e.slot[d] = int32(s)
	}
}

// fallOff gives the block in table slot s, just pushed out of the top,
// the next fall-off index and a live mark.
func (e *engine) fallOff(s int) {
	if e.seq == len(e.idx)-1 {
		e.compact()
	}
	e.seq++
	e.tab[s].mark = int32(e.seq)
	e.idx[e.seq] = int32(s)
	e.addMark(e.seq, 1)
	e.deep++
}

// compact makes room for the next fall-off index. With more than half
// the indexes live it doubles the capacity and keeps every index;
// otherwise it renumbers the live marks 1..deep in fall-off order, in
// place, reusing the tree and index arrays. Depths depend only on the
// order of the marks, so neither changes a result, and either way at
// least half the capacity is free afterwards.
func (e *engine) compact() {
	capacity := len(e.idx) - 1
	if 2*e.deep > capacity {
		// With a power-of-two capacity, every new node but the root
		// covers only new (empty) indexes, and the root covers all.
		tree := make([]int32, 2*capacity+1)
		copy(tree, e.tree)
		tree[2*capacity] = int32(e.deep)
		idx := make([]int32, 2*capacity+1)
		copy(idx, e.idx)
		e.tree, e.idx = tree, idx
		return
	}
	m := 0
	for i := 1; i <= e.seq; i++ {
		s := e.idx[i]
		if int(e.tab[s].mark) == i { // a reused block's mark is inTop or newer
			m++
			e.idx[m] = s
			e.tab[s].mark = int32(m)
		}
	}
	// The tree of marks at 1..m: node i covers (i-lowbit(i), i].
	for i := 1; i < len(e.tree); i++ {
		e.tree[i] = int32(max(0, min(i, m)-(i&(i-1))))
	}
	e.seq = m
}

// prefix counts the live marks at indexes 1..i.
func (e *engine) prefix(i int) int {
	n := 0
	for ; i > 0; i &= i - 1 {
		n += int(e.tree[i])
	}
	return n
}

// addMark adds d to the mark count at index i.
func (e *engine) addMark(i int, d int32) {
	for ; i < len(e.tree); i += i & -i {
		e.tree[i] += d
	}
}
