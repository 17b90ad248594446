package workload

import (
	"math/rand"

	"atum/internal/trace"
)

// Synthetic reference-stream generators for controlled cache and TLB
// experiments: where the assembly workloads give realism, these give
// knobs. All generators are deterministic for a given seed.

// SynthConfig parameterises a synthetic stream.
type SynthConfig struct {
	Seed    int64
	Records int
	PID     uint8

	// Base virtual address of the region the generator works in.
	Base uint32
	// WriteFrac in [0,100]: percentage of data references that write.
	WriteFrac int
}

func (c SynthConfig) rng() *rand.Rand {
	return rand.New(rand.NewSource(c.Seed + 1))
}

func (c SynthConfig) record(r *rand.Rand, addr uint32) trace.Word {
	kind := trace.KindDRead
	if r.Intn(100) < c.WriteFrac {
		kind = trace.KindDWrite
	}
	return trace.Pack(kind, addr, 4, c.PID, true, false, 0)
}

// Sequential generates a linear scan: addr, addr+stride, ... (array
// sweeps; best case for large blocks).
func Sequential(c SynthConfig, stride uint32) []trace.Word {
	if stride == 0 {
		stride = 4
	}
	r := c.rng()
	out := make([]trace.Word, c.Records)
	addr := c.Base
	for i := range out {
		out[i] = c.record(r, addr)
		addr += stride
	}
	return out
}

// Loop generates cyclic sweeps over a fixed footprint (the LRU-adversary
// pattern: caches smaller than the loop miss on every reference).
func Loop(c SynthConfig, footprint uint32, stride uint32) []trace.Word {
	if stride == 0 {
		stride = 4
	}
	r := c.rng()
	out := make([]trace.Word, c.Records)
	off := uint32(0)
	for i := range out {
		out[i] = c.record(r, c.Base+off)
		off += stride
		if off >= footprint {
			off = 0
		}
	}
	return out
}

// WorkingSet generates uniform random references within a footprint —
// the classic capacity-miss model.
func WorkingSet(c SynthConfig, footprint uint32) []trace.Word {
	r := c.rng()
	out := make([]trace.Word, c.Records)
	words := int(footprint / 4)
	if words < 1 {
		words = 1
	}
	for i := range out {
		out[i] = c.record(r, c.Base+uint32(r.Intn(words))*4)
	}
	return out
}

// Zipf generates references with a heavily skewed popularity
// distribution over pages (hot-page behaviour typical of real data).
func Zipf(c SynthConfig, pages int, s float64) []trace.Word {
	if pages < 1 {
		pages = 1
	}
	if s <= 1 {
		s = 1.2
	}
	r := c.rng()
	z := rand.NewZipf(r, s, 1, uint64(pages-1))
	out := make([]trace.Word, c.Records)
	for i := range out {
		page := uint32(z.Uint64())
		out[i] = c.record(r, c.Base+page<<9+uint32(r.Intn(128))*4)
	}
	return out
}

// PointerChase generates a dependent-chain pattern: a random permutation
// of slots walked in order — defeats spatial locality entirely.
func PointerChase(c SynthConfig, slots int) []trace.Word {
	if slots < 2 {
		slots = 2
	}
	r := c.rng()
	perm := r.Perm(slots)
	out := make([]trace.Word, c.Records)
	cur := 0
	for i := range out {
		out[i] = c.record(r, c.Base+uint32(cur)*16)
		cur = perm[cur]
	}
	return out
}

// Interleave merges streams round-robin with context-switch markers
// every quantum records — a synthetic multiprogramming mix.
func Interleave(quantum int, streams ...[]trace.Word) []trace.Word {
	if quantum < 1 {
		quantum = 1
	}
	total := 0
	for _, s := range streams {
		total += len(s)
	}
	out := make([]trace.Word, 0, total+total/quantum+len(streams))
	idx := make([]int, len(streams))
	cur := -1
	for {
		progressed := false
		for s := range streams {
			if idx[s] >= len(streams[s]) {
				continue
			}
			progressed = true
			if cur != s {
				cur = s
				pid := streams[s][idx[s]].PID()
				out = append(out, trace.Pack(trace.KindCtxSwitch, 0, 0, pid, false, false, uint16(pid)))
			}
			n := quantum
			if rem := len(streams[s]) - idx[s]; rem < n {
				n = rem
			}
			out = append(out, streams[s][idx[s]:idx[s]+n]...)
			idx[s] += n
		}
		if !progressed {
			return out
		}
	}
}
