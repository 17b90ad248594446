package sweep

import (
	"io"
	"sync"
	"sync/atomic"
	"time"

	"atum/internal/cache"
	"atum/internal/obs"
	"atum/internal/par"
	"atum/internal/stackdist"
	"atum/internal/tlbsim"
	"atum/internal/trace"
)

// Streaming telemetry: segments and records that entered the pipeline,
// the payload bytes they arrived as, per-chunk fan-out latency, and the
// most recent feed rate — the live counters monitor `status` surfaces
// during a capture.
var (
	mStreamSegments = obs.Default().Counter("atum_stream_segments_total")
	mStreamRecords  = obs.Default().Counter("atum_stream_records_total")
	mStreamBytes    = obs.Default().Counter("atum_stream_payload_bytes_total")
	mStreamFeedSecs = obs.Default().Histogram("atum_stream_feed_seconds", obs.DefSecondsBuckets)
	mStreamRate     = obs.Default().Gauge("atum_stream_replay_rate_recs_per_sec")
)

// Sim is the incremental simulator contract the pipeline drives: Feed
// consumes one read-only record chunk (which the pipeline reuses after
// Feed returns — implementations must not retain it), Result reports
// the simulation so far.
type Sim[R any] interface {
	Feed([]trace.Word) error
	Result() (R, error)
}

// Compile-time checks that every simulator adapter satisfies the
// contract.
var (
	_ Sim[[]cache.Result]        = (*cache.GridSim)(nil)
	_ Sim[cache.Result]          = (*cache.UnifiedSim)(nil)
	_ Sim[cache.HierarchyResult] = (*cache.HierarchySim)(nil)
	_ Sim[tlbsim.Stats]          = (*tlbsim.Sim)(nil)
	_ Sim[*stackdist.Profile]    = (*stackdist.Stream)(nil)
)

// Pipeline drives a set of incremental simulators over a bounded
// worker pool. Input arrives from one producer goroutine
// (Feed/HandleSegment/FeedSource/FeedStream are not themselves
// concurrency-safe). Pushed chunks are fanned out: every simulator
// consumes a chunk, in parallel, before the next is accepted. A source
// handed to FeedSource is instead replayed per simulator (see there).
// Either way each simulator sees every record in trace order, so the
// results are independent of the worker count and of the input mode —
// workers == 1 is the serial reference path.
type Pipeline struct {
	workers int
	feeders []func([]trace.Word) error
	names   []string

	// err is the sticky first failure (lowest simulator index within the
	// failing chunk, par.Map's contract); once set the pipeline drops
	// further input and every collector reports it. Guarded by mu:
	// collectors and Err may be called from goroutines other than the
	// producer's.
	mu  sync.Mutex
	err error

	// buf is the reused segment-decode buffer: its capacity tracks the
	// largest single segment, never the stream, which is the pipeline's
	// bounded-memory guarantee (pinned by TestStreamBoundedMemory).
	buf []trace.Word

	// decoded counts records decoded from segments so far; it is the
	// base for record-indexed decode errors, matching what a whole-file
	// read of the same stream would report.
	decoded uint64

	filter func(trace.Word) bool
	fbuf   []trace.Word  // reused filter scratch
	fed    atomic.Uint64 // records the simulators consumed (post-filter)
}

// NewPipeline returns an empty pipeline; workers bounds the per-chunk
// simulator fan-out (<= 0 means all cores, 1 is the serial reference
// path).
func NewPipeline(workers int) *Pipeline {
	return &Pipeline{workers: workers}
}

// AddSim registers an incremental simulator under a reporting name and
// returns its collector. Call the collector after the stream ends: it
// returns the simulator's result, or the pipeline's sticky error if any
// simulator or decode failed. Registration must finish before the
// first Feed.
func AddSim[R any](p *Pipeline, name string, sim Sim[R]) func() (R, error) {
	p.feeders = append(p.feeders, sim.Feed)
	p.names = append(p.names, name)
	return func() (R, error) {
		if err := p.Err(); err != nil {
			var zero R
			return zero, err
		}
		return sim.Result()
	}
}

// SetFilter installs a record predicate applied to every fed chunk
// before the simulators see it (e.g. the user-only subset). Must be set
// before the first Feed.
func (p *Pipeline) SetFilter(keep func(trace.Word) bool) { p.filter = keep }

// Err returns the sticky pipeline error, if any.
func (p *Pipeline) Err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// fail records the sticky first failure.
func (p *Pipeline) fail(err error) {
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.mu.Unlock()
}

// RecordsFed returns how many records the simulators have consumed
// (post-filter).
func (p *Pipeline) RecordsFed() uint64 { return p.fed.Load() }

// DroppedRecords is always 0: Feed hands every chunk to every simulator
// before it returns, so the pipeline never sheds a record. It stays for
// the benchmark's stream lane, which reports it.
func (p *Pipeline) DroppedRecords() uint64 { return 0 }

// Feed accepts one chunk from the producer and fans it across every
// registered simulator, returning once all of them have consumed it;
// the chunk may be reused as soon as Feed returns. A simulator error is
// sticky and every collector reports it.
func (p *Pipeline) Feed(chunk []trace.Word) error {
	if err := p.Err(); err != nil {
		return err
	}
	if p.filter != nil {
		p.fbuf = p.fbuf[:0]
		for _, r := range chunk {
			if p.filter(r) {
				p.fbuf = append(p.fbuf, r)
			}
		}
		chunk = p.fbuf
	}
	if len(chunk) == 0 {
		return nil
	}
	start := time.Now()
	_, err := par.Map(p.workers, len(p.feeders), func(i int) (struct{}, error) {
		return struct{}{}, p.feeders[i](chunk)
	})
	secs := time.Since(start).Seconds()
	mStreamFeedSecs.Observe(secs)
	mStreamRecords.Add(uint64(len(chunk)))
	p.fed.Add(uint64(len(chunk)))
	if secs > 0 {
		mStreamRate.Set(float64(len(chunk)) / secs)
	}
	if err != nil {
		p.fail(err)
	}
	return p.Err()
}

// HandleSegment decodes one teed segment into the pipeline's reusable
// buffer and feeds it: the splice between kernel.SpillConfig.OnSegment
// and the simulators. A truncated or corrupt segment feeds its decoded
// prefix, then fails with the identical record-indexed error a whole-file
// read of the stream would produce — and stays failed.
func (p *Pipeline) HandleSegment(seg trace.StreamSegment) error {
	if err := p.Err(); err != nil {
		return err
	}
	recs, derr := trace.DecodeSegment(seg.Codec, seg.Info, seg.Payload, p.buf, p.decoded)
	if cap(recs) > cap(p.buf) {
		p.buf = recs[:cap(recs)]
	}
	p.decoded += uint64(len(recs))
	mStreamSegments.Inc()
	mStreamBytes.Add(uint64(len(seg.Payload)))
	if len(recs) > 0 {
		p.Feed(recs)
	}
	if derr != nil {
		p.fail(derr)
	}
	return p.Err()
}

// OnSegment adapts the pipeline to kernel.SpillConfig.OnSegment: every
// spilled segment is decoded and fed as it is written. Decode and
// simulator errors are sticky and surface from the collectors (and
// Err), never back into the capture — the spill service's stream and
// accounting are unaffected by its observers.
func (p *Pipeline) OnSegment() func(trace.StreamSegment) {
	return func(seg trace.StreamSegment) { _ = p.HandleSegment(seg) }
}

// FeedSource replays an already-materialised source through every
// simulator. The source can be read again, so each simulator replays the
// whole of it in turn on the worker pool: one simulator's state stays in
// cache for the entire replay, which measures faster than fanning every
// chunk out to every simulator. With a filter installed the source is
// pushed chunk by chunk through Feed instead, so the filter applies
// exactly as it does to streamed input.
func (p *Pipeline) FeedSource(src trace.Source) error {
	if p.filter != nil {
		_ = src.EachChunk(p.Feed)
		return p.Err()
	}
	if err := p.Err(); err != nil {
		return err
	}
	records := uint64(src.NumRecords())
	submitted := time.Now()
	_, err := par.Map(p.workers, len(p.feeders), func(i int) (struct{}, error) {
		// Queue wait: how long this simulator sat behind earlier ones
		// before a worker picked it up.
		mQueueSecs.Observe(time.Since(submitted).Seconds())
		start := time.Now()
		err := src.EachChunk(p.feeders[i])
		secs := time.Since(start).Seconds()
		mRunSecs.Observe(secs)
		mConfigs.Inc()
		if secs > 0 && records > 0 {
			mReplayRate.Set(float64(records) / secs)
		}
		return struct{}{}, err
	})
	p.fed.Add(records)
	if err != nil {
		p.fail(err)
	}
	return p.Err()
}

// FeedStream reads a trace stream from r — a pipe, a file, any
// io.Reader — segment by segment and feeds each through HandleSegment,
// the same path a live spill tee takes. Memory stays bounded by one
// segment however long the stream is. Decode errors are sticky,
// record-indexed, and identical to what a whole-file read reports.
func (p *Pipeline) FeedStream(r io.Reader) error {
	sc, err := trace.NewScanner(r)
	if err != nil {
		p.fail(err)
		return p.Err()
	}
	for p.Err() == nil {
		seg, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			p.fail(err)
			break
		}
		p.HandleSegment(seg)
	}
	return p.Err()
}
