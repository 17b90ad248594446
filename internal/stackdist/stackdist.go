// Package stackdist implements Mattson stack-distance analysis: a single
// pass over a reference stream that yields the miss rate of *every*
// fully-associative LRU cache size simultaneously. Trace processing was
// the whole purpose of collecting ATUM traces, and one-pass multi-
// configuration analysis was the era's standard technique for exactly
// the kind of size sweeps the paper's figures show.
//
// One engine serves every caller (FromSource, Stream, cachesim
// -mattson, atum-serve and experiment A3). It keeps the 64 most
// recently used blocks as an explicit move-to-front array, so a reuse
// near the top of the stack costs a short scan, and counts the rest in
// a Fenwick tree over the order in which blocks fell out of that array,
// which gives a deeper reuse's distance in O(log n). Memory is
// O(distinct blocks) however long the stream runs.
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

// Block returns the block size the analysis uses: BlockBytes, or the
// 16-byte default when it is 0.
func (o Options) Block() uint32 {
	if o.BlockBytes == 0 {
		return 16
	}
	return o.BlockBytes
}

// blockMapper is Stream's record-to-block conversion. It assumes
// validated options.
type blockMapper struct {
	opts  Options
	shift uint
}

func newBlockMapper(opts Options) blockMapper {
	m := blockMapper{opts: opts}
	for opts.Block()>>m.shift != 1 {
		m.shift++
	}
	return m
}

// block converts one record, reporting whether it contributes a
// reference at all.
func (m blockMapper) block(r trace.Word) (uint64, bool) {
	switch r.Kind() {
	case trace.KindIFetch, trace.KindDRead, trace.KindDWrite:
	case trace.KindPTERead, trace.KindPTEWrite:
		if !m.opts.IncludePTE {
			return 0, false
		}
	default:
		return 0, false
	}
	if m.opts.UserOnly && !r.User() {
		return 0, false
	}
	addr := r.Addr()
	b := uint64(addr) >> m.shift
	if m.opts.PIDTag && !r.Phys() && addr>>30 != 2 {
		b |= uint64(r.PID()) << 40
	}
	return b, true
}

// Stream is the stack-distance analysis over trace records: it converts
// each record to a block reference and feeds the one engine. It is the
// Sim the sweep pipeline (internal/sweep) drives for cachesim -mattson
// and experiment A3, and what FromSource runs.
type Stream struct {
	bm blockMapper
	e  engine
}

// NewStream returns a record-fed analysis with the given conversion
// options.
func NewStream(opts Options) *Stream {
	return &Stream{bm: newBlockMapper(opts), e: newEngine(defaultTableSlots, defaultTreeCap)}
}

// Feed converts one chunk of records to block references and observes
// them. The chunk is only read; it may be reused after Feed returns.
func (s *Stream) Feed(chunk []trace.Word) error {
	for _, r := range chunk {
		if b, ok := s.bm.block(r); ok {
			s.e.add(b)
		}
	}
	return nil
}

// Result reports the profile accumulated so far. The returned value is
// the analysis's own state: read it after the final Feed.
func (s *Stream) Result() (*Profile, error) { return &s.e.p, nil }

// FromSource is the profile of a whole record source: a Stream fed
// every chunk in order.
func FromSource(src trace.Source, opts Options) *Profile {
	s := NewStream(opts)
	_ = src.EachChunk(s.Feed) // Feed never fails
	return &s.e.p
}
