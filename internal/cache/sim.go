package cache

import (
	"fmt"

	"atum/internal/trace"
)

// Incremental simulators: the only way to drive a cache. Each Sim is
// fed record chunks in trace order — by internal/sweep's Pipeline, or
// directly by a caller holding the records — and reports its result on
// demand, so the per-record routing loops live here as Feed methods.

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

// skip reports whether the record falls outside the sampled residue
// class. The decision happens before any simulator accounting, so a
// sampled run and a full run over the pre-filtered trace evolve through
// identical states.
func (s sampler) skip(r trace.Record) bool {
	if s.k == 0 || !r.Kind.IsMemRef() {
		return false
	}
	return (r.Addr>>s.blkShift)%s.k != s.off
}

// UnifiedSim is an incrementally-fed unified cache simulation.
type UnifiedSim struct {
	c    *Cache
	cfg  Config
	opts RunOptions
	samp sampler
}

// NewUnifiedSim validates the configuration and returns a simulator
// ready to be fed record chunks.
func NewUnifiedSim(cfg Config, opts RunOptions) (*UnifiedSim, error) {
	c, err := New(cfg)
	if err != nil {
		return nil, err
	}
	samp, err := newSampler(opts.SampleSets, opts.SampleOffset, cfg.BlockBytes)
	if err != nil {
		return nil, err
	}
	return &UnifiedSim{c: c, cfg: cfg, opts: opts, samp: samp}, nil
}

// Feed routes one chunk of records into the cache, honouring
// context-switch flushes. The chunk is only read; it may be reused by
// the caller after Feed returns.
//
// PID tags apply only to process-private addresses: system-space (S0)
// and physical references are globally shared, so they carry tag 0 —
// the "global" treatment PID/ASN-tagged memory hardware gives kernel
// addresses (and what the machine's own TB does for its system half).
func (s *UnifiedSim) Feed(chunk []trace.Record) error {
	for _, r := range chunk {
		if s.samp.skip(r) {
			continue
		}
		pid := r.PID
		if r.Phys || r.Addr>>30 == 2 {
			pid = 0
		}
		switch r.Kind {
		case trace.KindCtxSwitch:
			if s.cfg.FlushOnSwitch {
				s.c.Flush()
			}
		case trace.KindIFetch:
			s.c.Access(r.Addr, false, pid)
		case trace.KindDRead, trace.KindDWrite:
			if r.Phys && s.opts.SkipPhys {
				continue
			}
			s.c.Access(r.Addr, r.Kind == trace.KindDWrite, pid)
		case trace.KindPTERead, trace.KindPTEWrite:
			if !s.opts.IncludePTE {
				continue
			}
			s.c.Access(r.Addr, r.Kind == trace.KindPTEWrite, pid)
		}
	}
	return nil
}

// Result reports the simulation so far.
func (s *UnifiedSim) Result() (Result, error) {
	return Result{Config: s.cfg, Stats: s.c.Stats}, nil
}

// HierarchySim is an incrementally-fed two-level hierarchy simulation,
// routed like UnifiedSim with instruction fetches to L1I and everything
// else to L1D. Sampling, when enabled, keys on the L1 block address.
type HierarchySim struct {
	h     *Hierarchy
	cfg   HierarchyConfig
	opts  RunOptions
	samp  sampler
	flush bool
}

// NewHierarchySim validates the configuration and returns a simulator
// ready to be fed record chunks.
func NewHierarchySim(cfg HierarchyConfig, opts RunOptions) (*HierarchySim, error) {
	h, err := NewHierarchy(cfg)
	if err != nil {
		return nil, err
	}
	samp, err := newSampler(opts.SampleSets, opts.SampleOffset, cfg.L1.BlockBytes)
	if err != nil {
		return nil, err
	}
	return &HierarchySim{
		h: h, cfg: cfg, opts: opts, samp: samp,
		flush: cfg.L1.FlushOnSwitch || cfg.L2.FlushOnSwitch,
	}, nil
}

// Feed routes one chunk of records through the hierarchy.
func (s *HierarchySim) Feed(chunk []trace.Record) error {
	for _, r := range chunk {
		if s.samp.skip(r) {
			continue
		}
		pid := r.PID
		if r.Phys || r.Addr>>30 == 2 {
			pid = 0
		}
		switch r.Kind {
		case trace.KindCtxSwitch:
			if s.flush {
				s.h.Flush()
			}
		case trace.KindIFetch:
			s.h.access(s.h.L1I, r.Addr, false, pid)
		case trace.KindDRead, trace.KindDWrite:
			if r.Phys && s.opts.SkipPhys {
				continue
			}
			s.h.access(s.h.L1D, r.Addr, r.Kind == trace.KindDWrite, pid)
		case trace.KindPTERead, trace.KindPTEWrite:
			if !s.opts.IncludePTE {
				continue
			}
			s.h.access(s.h.L1D, r.Addr, r.Kind == trace.KindPTEWrite, pid)
		}
	}
	return nil
}

// Result reports the simulation so far.
func (s *HierarchySim) Result() (HierarchyResult, error) {
	res := HierarchyResult{
		L1I:            s.h.L1I.Stats,
		L1D:            s.h.L1D.Stats,
		L2:             s.h.L2.Stats,
		MemoryAccesses: s.h.MemoryAccesses,
	}
	total := res.L1I.Accesses + res.L1D.Accesses
	if total > 0 {
		res.GlobalL2MissRate = float64(res.L2.Misses) / float64(total)
	}
	return res, nil
}
