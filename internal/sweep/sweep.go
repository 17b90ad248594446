// Package sweep is the one analysis engine for trace-driven simulation:
// a Pipeline drives a set of incremental simulators (cache.UnifiedSim,
// cache.HierarchySim, tlbsim.Sim, stackdist.Stream, or any Sim) over a
// bounded worker pool, and aggregates results in registration order.
//
// This is the one-pass-many-configs methodology of the era's trace
// processing (Mattson-style size sweeps, the paper's F1-F5 figures)
// mapped onto cores: the trace is decoded once, each simulator owns its
// state, and because every simulator sees every record in trace order
// the output is byte-identical for any worker count — workers == 1 *is*
// the serial reference path, not a separate implementation.
//
// Input arrives in one of two modes. A materialised source (FeedSource)
// is replayed per simulator: each simulator walks the whole source on
// its own worker, so the source is read once per simulator while that
// simulator's state stays in cache. Pushed input (Feed, HandleSegment,
// FeedStream) is fanned out per chunk: every simulator consumes a chunk
// before the next one is accepted, which bounds memory by one chunk
// however long the stream runs. Both modes produce identical results.
package sweep

import (
	"atum/internal/cache"
	"atum/internal/obs"
	"atum/internal/tlbsim"
	"atum/internal/trace"
)

// Replay telemetry in the process-wide registry: how many simulators
// have replayed a whole source, how long each took, how long each waited
// in the queue behind earlier ones, and the most recent per-simulator
// replay rate. Observations happen once per simulator — far off the
// per-record replay path.
var (
	mConfigs    = obs.Default().Counter("atum_sweep_configs_total")
	mRunSecs    = obs.Default().Histogram("atum_sweep_config_run_seconds", obs.DefSecondsBuckets)
	mQueueSecs  = obs.Default().Histogram("atum_sweep_queue_wait_seconds", obs.DefSecondsBuckets)
	mReplayRate = obs.Default().Gauge("atum_sweep_replay_rate_recs_per_sec")
)

// Caches replays src through every cache configuration and returns the
// results in configuration order.
func Caches(src trace.Source, cfgs []cache.Config, opts cache.RunOptions, workers int) ([]cache.Result, error) {
	return run(src, cfgs, workers, func(cfg cache.Config) (Sim[cache.Result], error) {
		return cache.NewUnifiedSim(cfg, opts)
	})
}

// Hierarchies replays src through every two-level hierarchy
// configuration, in order.
func Hierarchies(src trace.Source, cfgs []cache.HierarchyConfig, opts cache.RunOptions, workers int) ([]cache.HierarchyResult, error) {
	return run(src, cfgs, workers, func(cfg cache.HierarchyConfig) (Sim[cache.HierarchyResult], error) {
		return cache.NewHierarchySim(cfg, opts)
	})
}

// TBs replays src through every translation-buffer configuration, in
// order.
func TBs(src trace.Source, cfgs []tlbsim.Config, workers int) ([]tlbsim.Stats, error) {
	return run(src, cfgs, workers, func(cfg tlbsim.Config) (Sim[tlbsim.Stats], error) {
		return tlbsim.NewSim(cfg)
	})
}

// run registers one simulator per configuration on a fresh pipeline,
// feeds it src and collects the results in configuration order.
func run[C interface{ Name() string }, R any](src trace.Source, cfgs []C, workers int, newSim func(C) (Sim[R], error)) ([]R, error) {
	p := NewPipeline(workers)
	collect, err := AddSims(p, cfgs, newSim)
	if err != nil {
		return nil, err
	}
	p.FeedSource(src)
	return collect()
}

// AddSims registers one simulator per configuration, each under the
// configuration's Name, and returns one collector for all their results
// in configuration order. Like AddSim's collectors it reports the
// pipeline's sticky error instead, if there is one.
func AddSims[C interface{ Name() string }, R any](p *Pipeline, cfgs []C, newSim func(C) (Sim[R], error)) (func() ([]R, error), error) {
	collect := make([]func() (R, error), len(cfgs))
	for i, cfg := range cfgs {
		sim, err := newSim(cfg)
		if err != nil {
			return nil, err
		}
		collect[i] = AddSim(p, cfg.Name(), sim)
	}
	return func() ([]R, error) {
		out := make([]R, len(collect))
		for i, c := range collect {
			r, err := c()
			if err != nil {
				return nil, err
			}
			out[i] = r
		}
		return out, nil
	}, nil
}
