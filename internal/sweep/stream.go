package sweep

import (
	"fmt"
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
// during a capture. The backpressure family reports what the explicit
// policy did: how often (and for how long) a blocking producer waited
// on the simulators, how many records a dropping producer shed, and the
// current queue depth.
var (
	mStreamSegments = obs.Default().Counter("atum_stream_segments_total")
	mStreamRecords  = obs.Default().Counter("atum_stream_records_total")
	mStreamBytes    = obs.Default().Counter("atum_stream_payload_bytes_total")
	mStreamFeedSecs = obs.Default().Histogram("atum_stream_feed_seconds", obs.DefSecondsBuckets)
	mStreamRate     = obs.Default().Gauge("atum_stream_replay_rate_recs_per_sec")

	mBPBlocks  = obs.Default().Counter("atum_stream_backpressure_blocks_total")
	mBPWait    = obs.Default().Histogram("atum_stream_backpressure_wait_seconds", obs.DefSecondsBuckets)
	mBPDropped = obs.Default().Counter("atum_stream_backpressure_dropped_records_total")
	mBPQueue   = obs.Default().Gauge("atum_stream_backpressure_queue_chunks")
)

// Backpressure is the pipeline's policy when the producer outruns the
// simulators: Block (the default, and the only behavior before the
// policy existed) makes Feed wait until every simulator has consumed
// the chunk; Drop hands the chunk to a bounded queue drained by a
// background goroutine and sheds whole chunks — with an exact dropped
// count — when the queue is full, so a capture machine is never stalled
// by a slow analysis tee. Block keeps the byte-identical determinism
// guarantee; Drop trades it for bounded producer latency, exactly like
// the collector's own buffer-full protocol.
type Backpressure int

const (
	BackpressureBlock Backpressure = iota
	BackpressureDrop
)

// String returns the wire name used by flags and the serve API.
func (b Backpressure) String() string {
	switch b {
	case BackpressureBlock:
		return "block"
	case BackpressureDrop:
		return "drop"
	}
	return fmt.Sprintf("Backpressure(%d)", int(b))
}

// ParseBackpressure maps the wire name back; "" means Block (the
// default policy).
func ParseBackpressure(s string) (Backpressure, error) {
	switch s {
	case "", "block":
		return BackpressureBlock, nil
	case "drop":
		return BackpressureDrop, nil
	}
	return 0, fmt.Errorf("sweep: unknown backpressure policy %q (want block or drop)", s)
}

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
	// further input and every collector reports it. Guarded by mu: in
	// Drop mode the drain goroutine sets it while the producer reads it.
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

	// Backpressure state. explicit marks that SetBackpressure was
	// called, which turns on the wait telemetry in Block mode; queue and
	// drained exist only in Drop mode.
	explicit bool
	queue    chan []trace.Word
	drained  chan struct{}
	dropped  atomic.Uint64
	pool     sync.Pool // recycled chunk copies for the drop queue
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

// SetBackpressure selects the policy for a producer that outruns the
// simulators; call it after registration and before the first Feed. In
// Drop mode queueChunks bounds the number of in-flight chunk copies
// (<= 0 selects a small default) and a background goroutine drains the
// queue: the caller must Drain() after the last Feed and before reading
// collectors. In Block mode nothing changes except the wait telemetry
// turning on for pushed chunks.
func (p *Pipeline) SetBackpressure(policy Backpressure, queueChunks int) {
	p.explicit = true
	if policy != BackpressureDrop {
		return
	}
	if queueChunks <= 0 {
		queueChunks = 4
	}
	p.queue = make(chan []trace.Word, queueChunks)
	p.drained = make(chan struct{})
	go func() {
		defer close(p.drained)
		for chunk := range p.queue {
			mBPQueue.Set(float64(len(p.queue)))
			p.fanOut(chunk)
			p.pool.Put(&chunk)
		}
		mBPQueue.Set(0)
	}()
}

// Drain closes the Drop-mode queue and waits for the background drain
// to finish feeding everything that was accepted; collectors are
// consistent only after it returns. It returns the sticky error, if
// any, and is a no-op (beyond that) under the Block policy.
func (p *Pipeline) Drain() error {
	if p.queue != nil {
		close(p.queue)
		<-p.drained
		p.queue = nil
	}
	return p.Err()
}

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
// (post-filter). In Drop mode it is consistent after Drain.
func (p *Pipeline) RecordsFed() uint64 { return p.fed.Load() }

// DroppedRecords returns how many records the Drop policy shed because
// the queue was full; always 0 under Block.
func (p *Pipeline) DroppedRecords() uint64 { return p.dropped.Load() }

// Feed accepts one chunk from the producer; the chunk may be reused as
// soon as Feed returns. Under the Block policy (the default) it fans
// the chunk across every registered simulator and waits for all of
// them; a simulator error is sticky and every collector reports it.
// Under Drop it copies the chunk into the bounded queue — or sheds it,
// counted, when the queue is full — and returns immediately.
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
	if p.queue != nil {
		var cp []trace.Word
		if bp := p.pool.Get(); bp != nil {
			cp = (*bp.(*[]trace.Word))[:0]
		}
		cp = append(cp, chunk...)
		select {
		case p.queue <- cp:
			mBPQueue.Set(float64(len(p.queue)))
		default:
			p.pool.Put(&cp)
			p.dropped.Add(uint64(len(chunk)))
			mBPDropped.Add(uint64(len(chunk)))
		}
		return p.Err()
	}
	start := time.Now()
	p.fanOut(chunk)
	if p.explicit {
		mBPBlocks.Inc()
		mBPWait.Observe(time.Since(start).Seconds())
	}
	return p.Err()
}

// fanOut feeds one chunk to every simulator over the worker pool and
// does the shared accounting; it is the single consumer-side path for
// both policies.
func (p *Pipeline) fanOut(chunk []trace.Word) {
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
// chunk out to every simulator. With a Drop queue or a filter installed
// the source is pushed chunk by chunk through Feed instead, so both
// apply exactly as they do to streamed input.
func (p *Pipeline) FeedSource(src trace.Source) error {
	if p.queue != nil || p.filter != nil {
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
