package serve

import (
	"bytes"
	"fmt"

	"atum/internal/cache"
	"atum/internal/serve/api"
	"atum/internal/stackdist"
	"atum/internal/sweep"
	"atum/internal/trace"
)

// maxSimLines bounds what one analysis request may ask for: the cache
// lines of all its configurations (a hierarchy counts L1 I, L1 D and L2)
// plus all TB entries, about 96 MiB at 24 B a line and 8 B an entry.
// cachesim's default size sweep (1 KB to 256 KB) asks for under 2^15.
const maxSimLines = 1 << 22

// simLines totals the lines and entries the request asks for.
func simLines(req api.AnalysisRequest) (n uint64) {
	lines := func(c cache.Config) uint64 {
		if c.BlockBytes == 0 {
			return 0 // Validate rejects it before anything is built
		}
		return uint64(c.SizeBytes / c.BlockBytes)
	}
	for _, c := range req.Caches {
		n += lines(c)
	}
	for _, h := range req.Hierarchies {
		n += 2*lines(h.L1) + lines(h.L2)
	}
	for _, c := range req.TBs {
		n += uint64(c.Entries)
	}
	return n
}

// runAnalysis executes one analysis request against a stored trace.
// The trace must be complete: a live capture's spool can end mid-byte
// of anything, and the point of a stored analysis is a reproducible
// answer over fixed bytes. Results are exactly what the local tools
// produce over the same trace — the sweeps run the very same functions
// over the very same decoded records, so a -remote run marshals
// byte-identical reports.
func (s *Server) runAnalysis(t *tenant, req api.AnalysisRequest) (*api.AnalysisResponse, error) {
	if n := simLines(req); n > maxSimLines {
		return nil, fmt.Errorf("request asks for %d cache lines and TB entries, over the limit of %d", n, maxSimLines)
	}
	st, err := t.trace(req.Trace)
	if err != nil {
		return nil, err
	}
	buf, complete := st.snapshot()
	if !complete {
		return nil, fmt.Errorf("trace %q is still capturing; analyses need a complete trace", req.Trace)
	}
	f, err := trace.OpenReaderAt(bytes.NewReader(buf), int64(len(buf)))
	if err != nil {
		return nil, fmt.Errorf("trace %q: %w", req.Trace, err)
	}
	defer f.Close()

	chunks, err := s.arenas.segments(arenaKey{tenant: t.name, trace: st.name, gen: st.gen}, f, req.DecodeWorkers)
	if err != nil {
		return nil, fmt.Errorf("trace %q: %w", req.Trace, err)
	}
	if req.CPU != nil {
		idx, err := f.CPUSegments(*req.CPU)
		if err != nil {
			return nil, fmt.Errorf("trace %q: %w", req.Trace, err)
		}
		sel := make([][]trace.Word, len(idx))
		for i, si := range idx {
			sel[i] = chunks[si]
		}
		chunks = sel
	}
	src := trace.NewArenaFromChunks(chunks)
	if req.UserOnly {
		src = src.FilterUser()
	}

	resp := &api.AnalysisResponse{Trace: req.Trace, Kind: req.Kind}
	switch req.Kind {
	case api.KindCaches:
		if len(req.Caches) == 0 {
			return nil, fmt.Errorf("kind %q needs at least one cache config", req.Kind)
		}
		resp.Caches, err = sweep.Caches(src, req.Caches, req.Run, req.Workers)
	case api.KindHierarchies:
		if len(req.Hierarchies) == 0 {
			return nil, fmt.Errorf("kind %q needs at least one hierarchy config", req.Kind)
		}
		resp.Hierarchies, err = sweep.Hierarchies(src, req.Hierarchies, req.Run, req.Workers)
	case api.KindTBs:
		if len(req.TBs) == 0 {
			return nil, fmt.Errorf("kind %q needs at least one TB config", req.Kind)
		}
		resp.TBs, err = sweep.TBs(src, req.TBs, req.Workers)
	case api.KindStackdist:
		opts := stackdist.Options{}
		if req.Stackdist != nil {
			opts = *req.Stackdist
		}
		if err := opts.Validate(); err != nil {
			return nil, err
		}
		resp.Stackdist = stackdist.FromSource(src, opts)
	case api.KindSummary:
		sum := trace.SummarizeSource(src)
		resp.Summary = &sum
	default:
		return nil, fmt.Errorf("unknown analysis kind %q", req.Kind)
	}
	if err != nil {
		return nil, err
	}
	return resp, nil
}
