package cache

import (
	"fmt"

	"atum/internal/trace"
)

// refOp is what one trace record asks of a cache simulator.
type refOp uint8

const (
	opNone   refOp = iota // nothing: an unsampled reference, a PTE reference without IncludePTE, or a marker other than a context switch
	opSwitch              // a context switch
	opIFetch              // an instruction fetch
	opRead                // a data read, or a PTE read with IncludePTE
	opWrite               // a data write, or a PTE write with IncludePTE
)

// router classifies trace records for the cache simulators. It is the
// one place that holds the kind switch, the PID rule for shared address
// space, RunOptions.IncludePTE and set sampling; UnifiedSim,
// HierarchySim and GridSim each route every record through it.
type router struct {
	ops  [256]refOp // by record header (trace.Word.Header)
	samp sampler
}

// refShared marks, in a router's op table, a reference to a physical
// address: its space is shared, so it carries PID tag 0. Reading that
// from the table instead of testing Phys keeps route within the
// inliner's budget, so every Feed loop routes without a call.
const refShared refOp = 8

func newRouter(opts RunOptions, blockBytes uint32) (router, error) {
	samp, err := newSampler(opts.SampleSets, opts.SampleOffset, blockBytes)
	if err != nil {
		return router{}, err
	}
	rt := router{samp: samp}
	var byKind [trace.NumKinds + 1]refOp // every 3-bit kind code: kind 7 routes nowhere
	byKind[trace.KindCtxSwitch] = opSwitch
	byKind[trace.KindIFetch] = opIFetch
	byKind[trace.KindDRead] = opRead
	byKind[trace.KindDWrite] = opWrite
	if opts.IncludePTE {
		byKind[trace.KindPTERead] = opRead
		byKind[trace.KindPTEWrite] = opWrite
	}
	for h := range len(rt.ops) {
		w := trace.Word(h) // a record whose header is h
		op := byKind[w.Kind()]
		if w.Phys() && op >= opIFetch {
			op |= refShared
		}
		rt.ops[h] = op
	}
	return rt, nil
}

// route classifies one record and, for a reference, returns the PID tag
// it carries. PID tags apply only to process-private addresses:
// system-space (S0) and physical references are globally shared, so
// they carry tag 0 — the "global" treatment PID/ASN-tagged memory
// hardware gives kernel addresses (and what the machine's own TB does
// for its system half).
func (rt *router) route(r trace.Word) (refOp, uint8) {
	op := rt.ops[r.Header()]
	if op < opIFetch {
		return op, 0
	}
	addr := r.Addr()
	if rt.samp.skip(addr) {
		return opNone, 0
	}
	if op >= refShared || addr>>30 == 2 {
		return op &^ refShared, 0
	}
	return op, r.PID()
}

// sampler implements 1-in-K block sampling: a reference is simulated
// only when its block address falls in the sampled residue class. When
// K divides the cache's set count this is exact set sampling — block
// addresses in one residue class map onto a fixed subset of sets — and
// the sampled simulation equals the full simulation restricted to those
// sets (the property test in sample_test.go pins the stronger statement
// that it equals a full run over the block-filtered trace). Marker
// records always pass: context switches flush whatever lines the
// sampled run has, same as the full run would for those sets.
type sampler struct {
	k, off   uint32
	blkShift uint32
}

func newSampler(k, off, blockBytes uint32) (sampler, error) {
	if k <= 1 {
		return sampler{}, nil
	}
	if off >= k {
		return sampler{}, fmt.Errorf("cache: sample offset %d not below sample sets %d", off, k)
	}
	s := sampler{k: k, off: off}
	for blockBytes>>s.blkShift != 1 {
		s.blkShift++
	}
	return s, nil
}

// skip reports whether a reference to addr falls outside the sampled
// residue class. The decision happens before any simulator accounting,
// so a sampled run and a full run over the pre-filtered trace evolve
// through identical states.
func (s sampler) skip(addr uint32) bool {
	return s.k != 0 && (addr>>s.blkShift)%s.k != s.off
}
