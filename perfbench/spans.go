package main

import (
	"runtime/metrics"
	"time"
)

// span is one timed call into a layer's public function. Spans of one op
// share the op number; Parent indexes the enclosing span of the same op
// (-1 for a top-level span), so a layer's self time is its duration less
// the time its child spans cover.
type span struct {
	Name   string  `json:"name"`
	Op     int     `json:"op"`
	Parent int     `json:"parent"`
	Start  float64 `json:"start_s"` // seconds since the op started
	End    float64 `json:"end_s"`
}

func (s span) dur() float64 { return s.End - s.Start }

// layerOf maps a span name to the module layer it times.
var layerOf = map[string]string{
	"boot":              "boot",
	"micro.run":         "machine",
	"capture.run":       "capture",
	"spill.start":       "spill",
	"spill.close":       "spill",
	"trace.open":        "container",
	"trace.decode":      "container",
	"trace.summarize":   "container",
	"trace.merge":       "container",
	"sweep.caches":      "analysis",
	"sweep.tbs":         "analysis",
	"stackdist":         "analysis",
	"sweep.stream_feed": "analysis",
}

// recorder keeps the spans of the current op in memory. When off, do only
// calls its function, so the plain run pays one branch per layer call.
type recorder struct {
	on    bool
	op    int
	t0    time.Time
	spans []span
	stack []int

	heapPeak uint64 // largest live heap seen at the end of a top-level span
	sample   []metrics.Sample
}

// reset starts recording op n (or stops recording when on is false).
func (r *recorder) reset(n int, on bool) {
	r.on, r.op, r.t0 = on, n, time.Now()
	r.spans, r.stack = nil, r.stack[:0]
}

// do runs fn inside a span named name.
func (r *recorder) do(name string, fn func() error) error {
	if !r.on {
		return fn()
	}
	i := len(r.spans)
	parent := -1
	if len(r.stack) > 0 {
		parent = r.stack[len(r.stack)-1]
	}
	r.spans = append(r.spans, span{Name: name, Op: r.op, Parent: parent, Start: time.Since(r.t0).Seconds()})
	r.stack = append(r.stack, i)
	err := fn()
	r.stack = r.stack[:len(r.stack)-1]
	r.spans[i].End = time.Since(r.t0).Seconds()
	if parent == -1 {
		if h := liveHeap(&r.sample); h > r.heapPeak {
			r.heapPeak = h
		}
	}
	return err
}

// liveHeap reads the bytes of live and not-yet-swept heap objects without
// stopping the world.
func liveHeap(s *[]metrics.Sample) uint64 {
	if *s == nil {
		*s = []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	}
	metrics.Read(*s)
	return (*s)[0].Value.Uint64()
}

// gcCycles reads the number of completed GC cycles.
func gcCycles() uint64 {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// durations sums the spans of one op by name.
func durations(spans []span) map[string]float64 {
	d := make(map[string]float64)
	for _, s := range spans {
		d[s.Name] += s.dur()
	}
	return d
}

// selfTimes sums, by span name, each span's duration less the part its
// direct children cover.
func selfTimes(spans []span) map[string]float64 {
	self := make(map[string]float64)
	for _, s := range spans {
		self[s.Name] += s.dur()
		if s.Parent >= 0 {
			self[spans[s.Parent].Name] -= s.dur()
		}
	}
	return self
}

// coverage is the share of the op's wall time its top-level spans cover.
func coverage(spans []span, wall float64) float64 {
	var c float64
	for _, s := range spans {
		if s.Parent < 0 {
			c += s.dur()
		}
	}
	return ratio(c, wall)
}
