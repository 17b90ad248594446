package serve

import (
	"fmt"
	"io"
	"sync"

	"atum/internal/obs"
)

// tenant is one isolation domain: its own metrics registry (capture and
// spill telemetry for its sessions lands here, never in another
// tenant's), its own session table and its own trace namespace. Nothing
// a tenant stores or measures is reachable through another tenant's
// routes — the isolation the lifecycle tests pin.
type tenant struct {
	name string
	reg  *obs.Registry

	mu       sync.Mutex
	sessions map[string]*session
	traces   map[string]*storedTrace
	gen      uint64 // bumped per stored-trace (re)creation; arena cache key part
}

func newTenant(name string) *tenant {
	return &tenant{
		name:     name,
		reg:      obs.NewRegistry(),
		sessions: map[string]*session{},
		traces:   map[string]*storedTrace{},
	}
}

// trace returns the named stored trace or an error.
func (t *tenant) trace(name string) (*storedTrace, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.traces[name]
	if st == nil {
		return nil, fmt.Errorf("tenant %s has no trace %q", t.name, name)
	}
	return st, nil
}

// createTrace installs a new stored trace under name, replacing any
// previous trace of that name (the generation bump keeps stale arena
// cache entries from ever being served for the new bytes).
func (t *tenant) createTrace(name string, spoolBytes int) *storedTrace {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.gen++
	st := newStoredTrace(name, t.gen, spoolBytes)
	t.traces[name] = st
	return st
}

// traceNames returns the tenant's trace names, unsorted.
func (t *tenant) traceNames() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, 0, len(t.traces))
	for n := range t.traces {
		out = append(out, n)
	}
	return out
}

// storedTrace is one trace's bytes: an append-only in-memory spool a
// capture session writes into (as the spill service's sink) and any
// number of clients read out of, concurrently, while it grows.
//
// Backpressure: a live segment streamer registers its read offset;
// when every streamer has fallen more than spoolBytes behind the head,
// Write fails — which the spill service treats exactly like a stalled
// disk: the collector degrades to counted-drop mode and the stream
// stays valid up to the last complete segment. This is the spill
// service's buffer-full/degrade protocol reused at the request level;
// slow clients cost accounted records, never unbounded memory and never
// a corrupt stream.
type storedTrace struct {
	name string
	gen  uint64

	mu       sync.Mutex
	cond     *sync.Cond
	buf      []byte
	complete bool
	err      error // sink-side failure, if any

	spoolBytes int
	readers    map[*traceReader]struct{}
}

func newStoredTrace(name string, gen uint64, spoolBytes int) *storedTrace {
	st := &storedTrace{name: name, gen: gen, spoolBytes: spoolBytes, readers: map[*traceReader]struct{}{}}
	st.cond = sync.NewCond(&st.mu)
	return st
}

// errSlowConsumer is the sink error handed to the spill service when
// live streamers cannot keep up; it surfaces in SessionInfo.Error.
type errSlowConsumer struct{ lag int }

func (e errSlowConsumer) Error() string {
	return fmt.Sprintf("serve: live segment consumer %d bytes behind spool budget; capture degraded to drop mode", e.lag)
}

// Write implements io.Writer for the spill service's sink.
func (st *storedTrace) Write(p []byte) (int, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.err != nil {
		return 0, st.err
	}
	if lag := st.maxLagLocked(); st.spoolBytes > 0 && lag > st.spoolBytes {
		st.err = errSlowConsumer{lag: lag}
		st.cond.Broadcast()
		return 0, st.err
	}
	st.buf = append(st.buf, p...)
	st.cond.Broadcast()
	return len(p), nil
}

// maxLagLocked returns how far the slowest live reader trails the head;
// 0 when no readers are attached (an unattended capture spools freely —
// storage, not backpressure).
func (st *storedTrace) maxLagLocked() int {
	lag := 0
	for r := range st.readers {
		if l := len(st.buf) - r.off; l > lag {
			lag = l
		}
	}
	return lag
}

// finish marks the trace complete (no more bytes will arrive) and wakes
// every reader.
func (st *storedTrace) finish() {
	st.mu.Lock()
	st.complete = true
	st.cond.Broadcast()
	st.mu.Unlock()
}

// snapshot returns the current bytes (aliasing the spool: callers must
// not mutate), whether the trace is complete, and the generation.
func (st *storedTrace) snapshot() ([]byte, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.buf[:len(st.buf):len(st.buf)], st.complete
}

// setBytes installs a complete uploaded trace in one shot.
func (st *storedTrace) setBytes(b []byte) {
	st.mu.Lock()
	st.buf = b
	st.complete = true
	st.cond.Broadcast()
	st.mu.Unlock()
}

// traceReader streams the spool from the beginning, blocking for more
// bytes until the trace completes; it participates in the lag
// accounting while attached.
type traceReader struct {
	st  *storedTrace
	off int
}

// newReader attaches a live reader.
func (st *storedTrace) newReader() *traceReader {
	r := &traceReader{st: st}
	st.mu.Lock()
	st.readers[r] = struct{}{}
	st.mu.Unlock()
	return r
}

// Read blocks until bytes are available past the reader's offset or the
// trace completes (io.EOF) — the contract http.ServeContent-style
// copies expect. A sink failure does not fail the read: the spool up to
// the last complete segment is still a valid stream.
func (r *traceReader) Read(p []byte) (int, error) {
	st := r.st
	st.mu.Lock()
	defer st.mu.Unlock()
	for r.off >= len(st.buf) && !st.complete {
		st.cond.Wait()
	}
	if r.off >= len(st.buf) {
		return 0, io.EOF
	}
	n := copy(p, st.buf[r.off:])
	r.off += n
	return n, nil
}

// Close detaches the reader from the lag accounting.
func (r *traceReader) Close() error {
	st := r.st
	st.mu.Lock()
	delete(st.readers, r)
	st.mu.Unlock()
	return nil
}
