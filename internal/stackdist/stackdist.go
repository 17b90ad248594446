// Package stackdist implements Mattson stack-distance analysis: a single
// pass over a reference stream that yields the miss rate of *every*
// fully-associative LRU cache size simultaneously. Trace processing was
// the whole purpose of collecting ATUM traces, and one-pass multi-
// configuration analysis was the era's standard technique for exactly
// the kind of size sweeps the paper's figures show.
//
// The implementation uses the classic time-stamp reformulation: the
// stack distance of a reference equals the number of distinct blocks
// referenced since this block's previous reference, which a Fenwick tree
// over reference time counts in O(log n) per reference.
package stackdist

import (
	"fmt"

	"atum/internal/trace"
)

// Profile is the stack-distance histogram of a reference stream.
type Profile struct {
	// Depths[d] counts references with stack distance d+1 (d=0 is a
	// re-reference to the most recently used block).
	Depths []uint64
	// Cold counts first-ever references (infinite distance).
	Cold uint64
	// Total is the number of references analysed.
	Total uint64
}

// fenwick is a binary indexed tree of counts over 1..n.
type fenwick struct {
	tree []uint64
}

func newFenwick(n int) *fenwick { return &fenwick{tree: make([]uint64, n+1)} }

func (f *fenwick) add(i int, d uint64) {
	for ; i < len(f.tree); i += i & (-i) {
		f.tree[i] += d
	}
}

func (f *fenwick) sum(i int) uint64 {
	var s uint64
	for ; i > 0; i -= i & (-i) {
		s += f.tree[i]
	}
	return s
}

// Analyze computes the profile of a block-address stream.
func Analyze(blocks []uint64) *Profile {
	p := &Profile{}
	// Presized proportionally to the stream: real streams reuse blocks
	// heavily, so a quarter of the references is a generous bound on the
	// distinct-block count and spares the map most of its incremental
	// rehashes (which dominated Analyze on long traces).
	size := len(blocks) / 4
	if size < 1024 {
		size = 1024
	}
	last := make(map[uint64]int, size)
	fw := newFenwick(len(blocks))
	marked := 0 // live marks in the tree == current distinct-block count

	for t, b := range blocks {
		p.Total++
		t1 := t + 1 // Fenwick is 1-based
		if t0, seen := last[b]; seen {
			// Distance = distinct blocks referenced in (t0, t) plus one
			// (this block itself sits below them on the stack).
			depth := int(fw.sum(t1-1) - fw.sum(t0))
			p.observe(depth + 1)
			fw.add(t0, ^uint64(0)) // remove the old mark (add -1)
			marked--
		} else {
			p.Cold++
		}
		last[b] = t1
		fw.add(t1, 1)
		marked++
	}
	_ = marked
	return p
}

func (p *Profile) observe(depth int) {
	for len(p.Depths) < depth {
		p.Depths = append(p.Depths, 0)
	}
	p.Depths[depth-1]++
}

// Misses returns the miss count of a fully-associative LRU cache holding
// capacity blocks: cold misses plus every reference whose stack distance
// exceeds the capacity.
func (p *Profile) Misses(capacity int) uint64 {
	m := p.Cold
	for d := capacity; d < len(p.Depths); d++ {
		m += p.Depths[d]
	}
	return m
}

// MissRate returns Misses(capacity)/Total.
func (p *Profile) MissRate(capacity int) float64 {
	if p.Total == 0 {
		return 0
	}
	return float64(p.Misses(capacity)) / float64(p.Total)
}

// MissCurve evaluates the full miss-rate curve at the given capacities
// (in blocks).
func (p *Profile) MissCurve(capacities []int) []float64 {
	out := make([]float64, len(capacities))
	for i, c := range capacities {
		out[i] = p.MissRate(c)
	}
	return out
}

// MaxDepth returns the largest observed stack distance.
func (p *Profile) MaxDepth() int { return len(p.Depths) }

// Options control trace-to-block-stream conversion.
type Options struct {
	BlockBytes uint32 // line size (power of two; 0 means 16)
	PIDTag     bool   // separate per-process address spaces
	IncludePTE bool   // include translation-microcode references
	UserOnly   bool   // drop kernel references
}

// Validate checks the conversion options: a BlockBytes of 0 selects the
// 16-byte default, any other value must be a power of two.
func (o Options) Validate() error {
	if o.BlockBytes&(o.BlockBytes-1) != 0 {
		return fmt.Errorf("stackdist: block size %d not a power of two", o.BlockBytes)
	}
	return nil
}

// blockMapper is the record-to-block conversion both the whole-source
// path (BlocksSource) and the record-fed path (Stream) share, so the two
// cannot drift. It assumes validated options.
type blockMapper struct {
	opts  Options
	shift uint
}

func newBlockMapper(opts Options) blockMapper {
	if opts.BlockBytes == 0 {
		opts.BlockBytes = 16
	}
	m := blockMapper{opts: opts}
	for opts.BlockBytes>>m.shift != 1 {
		m.shift++
	}
	return m
}

// block converts one record, reporting whether it contributes a
// reference at all.
func (m blockMapper) block(r trace.Record) (uint64, bool) {
	switch r.Kind {
	case trace.KindIFetch, trace.KindDRead, trace.KindDWrite:
	case trace.KindPTERead, trace.KindPTEWrite:
		if !m.opts.IncludePTE {
			return 0, false
		}
	default:
		return 0, false
	}
	if m.opts.UserOnly && !r.User {
		return 0, false
	}
	b := uint64(r.Addr) >> m.shift
	if m.opts.PIDTag && !r.Phys && r.Addr>>30 != 2 {
		b |= uint64(r.PID) << 40
	}
	return b, true
}

// BlocksSource converts a record source into the block-address stream
// Analyze expects, in one pass.
func BlocksSource(src trace.Source, opts Options) []uint64 {
	m := newBlockMapper(opts)
	out := make([]uint64, 0, src.NumRecords())
	_ = src.EachChunk(func(chunk []trace.Record) error {
		for _, r := range chunk {
			if b, ok := m.block(r); ok {
				out = append(out, b)
			}
		}
		return nil
	})
	return out
}

// FromSource is the composition of BlocksSource and Analyze: the
// whole-source analysis the record-fed Stream is checked against.
func FromSource(src trace.Source, opts Options) *Profile {
	return Analyze(BlocksSource(src, opts))
}
