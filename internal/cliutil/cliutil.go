// Package cliutil holds the flag plumbing the atum commands share.
// CommonOptions is the one registration + validation surface: a command
// says which of the shared flags it takes (workers, decode-workers,
// segment-bytes, sample-sets, metrics-addr/-dump, remote) and gets
// identical help text, identical validation and the conventional exit
// codes everywhere, instead of each command clamping its own way.
package cliutil

import (
	"flag"
	"fmt"
	"io"
	"os"

	"atum/internal/obs"
	"atum/internal/trace"
)

// Flag selects which shared flags a command registers; commands OR
// together the ones they take.
type Flag uint

const (
	FlagWorkers       Flag = 1 << iota // -workers: simulation/section fan-out
	FlagDecodeWorkers                  // -decode-workers: segment decode fan-out
	FlagSegmentBytes                   // -segment-bytes: spill buffer sizing
	FlagSampleSets                     // -sample-sets: 1-in-K set sampling
	FlagMetrics                        // -metrics-addr / -metrics-dump
	FlagRemote                         // -remote: run against an atum-serve daemon
)

// CommonOptions carries the shared flag values. Register with AddFlags,
// then call Validate exactly once after fs.Parse; Validate checks only
// the flags that were registered, so a command never rejects input on a
// flag it does not expose.
type CommonOptions struct {
	Workers       int
	DecodeWorkers int
	SegmentBytes  uint
	SampleSets    uint
	Remote        string
	Metrics       Metrics

	registered Flag
	segBytes   uint32
}

// AddFlags registers the selected flags on fs with the shared help
// strings.
func (o *CommonOptions) AddFlags(fs *flag.FlagSet, which Flag) {
	o.registered |= which
	if which&FlagWorkers != 0 {
		fs.IntVar(&o.Workers, "workers", 0, "worker goroutines (0 = all cores, 1 = serial reference path)")
	}
	if which&FlagDecodeWorkers != 0 {
		fs.IntVar(&o.DecodeWorkers, "decode-workers", 0, "segment decode goroutines (0 = all cores, 1 = serial reference path)")
	}
	if which&FlagSegmentBytes != 0 {
		fs.UintVar(&o.SegmentBytes, "segment-bytes", 0, "stream segments of this buffer size (0 = buffer whole trace in memory)")
	}
	if which&FlagSampleSets != 0 {
		fs.UintVar(&o.SampleSets, "sample-sets", 0, "simulate only 1 in K cache sets (0 or 1 = all sets; cheap previews)")
	}
	if which&FlagMetrics != 0 {
		o.Metrics.AddFlags(fs)
	}
	if which&FlagRemote != 0 {
		fs.StringVar(&o.Remote, "remote", "", "run against an atum-serve daemon at this base URL or host:port instead of locally")
	}
}

// Validate checks every registered flag's parsed value; the first error
// is returned with the offending flag named, ready for Exit2.
func (o *CommonOptions) Validate() error {
	if o.registered&FlagWorkers != 0 {
		if _, err := Workers("workers", o.Workers); err != nil {
			return err
		}
	}
	if o.registered&FlagDecodeWorkers != 0 {
		if _, err := Workers("decode-workers", o.DecodeWorkers); err != nil {
			return err
		}
	}
	if o.registered&FlagSegmentBytes != 0 {
		sb, err := SegmentBytes("segment-bytes", o.SegmentBytes)
		if err != nil {
			return err
		}
		o.segBytes = sb
	}
	return nil
}

// SegBytes returns the validated segment-buffer size; valid only after
// Validate has succeeded.
func (o *CommonOptions) SegBytes() uint32 { return o.segBytes }

// osExit is swapped out by the cliutil tests so exit-code behavior is
// testable in-process.
var osExit = os.Exit

// Exit2 reports a flag-validation error the conventional way: the
// command name, the error, exit status 2 — distinct from runtime
// failures (status 1).
func Exit2(cmd string, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", cmd, err)
	osExit(2)
}

// Workers validates a worker-count flag value: 0 means "all available
// cores" (the documented default), positive values size the pool, and
// negative values are a usage error — before this helper they silently
// resolved to all cores, which reads like a typo being guessed at.
// name is the flag's name for the error message.
func Workers(name string, v int) (int, error) {
	if v < 0 {
		return 0, fmt.Errorf("-%s %d: worker count cannot be negative (0 = all cores, 1 = serial)", name, v)
	}
	return v, nil
}

// SegmentBytes validates a segment-buffer-size flag value: 0 disables
// segmenting, anything else must hold at least one record — a smaller
// buffer would fail deep inside the collector install with a confusing
// "reserved region too small" long after flag parsing.
func SegmentBytes(name string, v uint) (uint32, error) {
	if v != 0 && v < trace.RecordBytes {
		return 0, fmt.Errorf("-%s %d: segment buffer must hold at least one %d-byte record (0 disables segmenting)",
			name, v, trace.RecordBytes)
	}
	return uint32(v), nil
}

// Metrics wires the shared observability flags: -metrics-addr serves
// the registry and the Go profiles over HTTP for the lifetime of the
// command, -metrics-dump prints the plain-text exposition when the
// command finishes.
type Metrics struct {
	Addr string
	Dump bool

	reg  *obs.Registry
	stop func() error
}

// AddFlags registers -metrics-addr and -metrics-dump on fs.
func (m *Metrics) AddFlags(fs *flag.FlagSet) {
	fs.StringVar(&m.Addr, "metrics-addr", "", "serve live metrics and /debug/pprof over HTTP on this address (e.g. :9090)")
	fs.BoolVar(&m.Dump, "metrics-dump", false, "print the metrics registry on exit")
}

// Start begins serving the default registry if -metrics-addr was given,
// logging the bound address to w.
func (m *Metrics) Start(w io.Writer) error {
	m.reg = obs.Default()
	if m.Addr == "" {
		return nil
	}
	bound, stop, err := m.reg.Serve(m.Addr)
	if err != nil {
		return err
	}
	m.stop = stop
	fmt.Fprintf(w, "metrics: serving on http://%s/metrics\n", bound)
	return nil
}

// Finish prints the registry if -metrics-dump was given and stops the
// server. Call it on every exit path that should report telemetry.
func (m *Metrics) Finish(w io.Writer) {
	if m.reg == nil {
		m.reg = obs.Default()
	}
	if m.Dump {
		m.reg.WriteText(w)
	}
	if m.stop != nil {
		m.stop()
		m.stop = nil
	}
}
