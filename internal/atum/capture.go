package atum

import (
	"atum/internal/micro"
	"atum/internal/trace"
)

// Capture is the result of a tracing run: the samples extracted each time
// the reserved buffer filled, in order, plus the final partial sample.
type Capture struct {
	Samples   [][]trace.Word
	Collector *Collector
}

// All stitches the samples into one continuous trace. Because extraction
// here is instantaneous (the "dump" does not execute on the machine), the
// stitched trace has no gaps; T3 studies gap effects by *discarding*
// inter-sample records instead.
func (c *Capture) All() []trace.Word {
	n := 0
	for _, s := range c.Samples {
		n += len(s)
	}
	out := make([]trace.Word, 0, n)
	for _, s := range c.Samples {
		out = append(out, s...)
	}
	return out
}

// Run executes run on machine m with ATUM installed, extracting a sample
// each time the buffer fills, and returns the full stitched capture. The
// collector is uninstalled before returning.
func Run(m *micro.Machine, opts Options, run func() error) (*Capture, error) {
	cap := &Capture{}
	inner := opts.OnFull
	opts.OnFull = func(c *Collector) {
		recs, err := c.Extract()
		if err != nil {
			panic(err) // reserved-region parse cannot fail on collector-written data
		}
		cap.Samples = append(cap.Samples, recs)
		if inner != nil {
			inner(c)
		}
	}
	col, err := Install(m, opts)
	if err != nil {
		return nil, err
	}
	cap.Collector = col
	defer col.Uninstall()
	if err := run(); err != nil {
		return nil, err
	}
	final, err := col.Extract()
	if err != nil {
		return nil, err
	}
	if len(final) > 0 {
		cap.Samples = append(cap.Samples, final)
	}
	return cap, nil
}
