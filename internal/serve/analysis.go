package serve

import (
	"bytes"
	"fmt"

	"atum/internal/cache"
	"atum/internal/serve/api"
	"atum/internal/stackdist"
	"atum/internal/sweep"
	"atum/internal/tlbsim"
	"atum/internal/trace"
)

// runAnalysis executes one analysis request against a stored trace.
// The trace must be complete: a live capture's spool can end mid-byte
// of anything, and the point of a stored analysis is a reproducible
// answer over fixed bytes. Results are exactly what the local tools
// produce over the same trace — the sweeps run the very same functions
// over the very same decoded records, so a -remote run marshals
// byte-identical reports.
func (s *Server) runAnalysis(t *tenant, req api.AnalysisRequest) (*api.AnalysisResponse, error) {
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
		if !f.SeqStamped() {
			return nil, fmt.Errorf("trace %q is not sequence-stamped; no per-CPU attribution to filter on", req.Trace)
		}
		var sel [][]trace.Record
		for i, info := range f.Segments() {
			if int(info.CPU) == *req.CPU {
				sel = append(sel, chunks[i])
			}
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
		resp.Caches, resp.DroppedRecords, err = sweepSims(src, req, req.Caches, func(cfg cache.Config) (sweep.Sim[cache.Result], error) {
			return cache.NewUnifiedSim(cfg, req.Run)
		})
	case api.KindHierarchies:
		if len(req.Hierarchies) == 0 {
			return nil, fmt.Errorf("kind %q needs at least one hierarchy config", req.Kind)
		}
		resp.Hierarchies, resp.DroppedRecords, err = sweepSims(src, req, req.Hierarchies, func(cfg cache.HierarchyConfig) (sweep.Sim[cache.HierarchyResult], error) {
			return cache.NewHierarchySim(cfg, req.Run)
		})
	case api.KindTBs:
		if len(req.TBs) == 0 {
			return nil, fmt.Errorf("kind %q needs at least one TB config", req.Kind)
		}
		resp.TBs, resp.DroppedRecords, err = sweepSims(src, req, req.TBs, func(cfg tlbsim.Config) (sweep.Sim[tlbsim.Stats], error) {
			return tlbsim.NewSim(cfg)
		})
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

// sweepSims runs one simulator per configuration through one pipeline
// under the request's backpressure policy: Block replays every record
// (results identical to a local sweep); Drop sheds counted records when
// the bounded queue backs up — the same degrade-never-stall stance the
// capture side takes.
func sweepSims[C interface{ Name() string }, R any](src trace.Source, req api.AnalysisRequest, cfgs []C, newSim func(C) (sweep.Sim[R], error)) ([]R, uint64, error) {
	policy, err := sweep.ParseBackpressure(req.Backpressure)
	if err != nil {
		return nil, 0, err
	}
	p := sweep.NewPipeline(req.Workers)
	collect, err := sweep.AddSims(p, cfgs, newSim)
	if err != nil {
		return nil, 0, err
	}
	p.SetBackpressure(policy, req.QueueChunks)
	p.FeedSource(src)
	if err := p.Drain(); err != nil {
		return nil, 0, err
	}
	out, err := collect()
	return out, p.DroppedRecords(), err
}
