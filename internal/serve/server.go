// Package serve is the atum-serve daemon: one long-running process
// holding many tenants' captures and traces behind the versioned JSON
// API in internal/serve/api. Each tenant gets isolated capture
// sessions (its own kernel spill services and obs registry) and an
// isolated trace namespace; all tenants share one byte-budgeted cache
// of decoded segment arenas, so repeated sweeps over hot traces skip
// decode entirely. The same request/response structs drive the HTTP
// handlers here, the Go Client below, and the CLIs' -remote modes —
// one public surface, no parallel dialects.
package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"

	"atum/internal/findings"
	"atum/internal/obs"
	"atum/internal/serve/api"
	"atum/internal/trace"
)

// Request telemetry, global: per-tenant capture/spill metrics live on
// each tenant's registry; the daemon's own traffic is daemon-wide.
var (
	mReqs    = obs.Default().Counter("atum_serve_requests_total")
	mReqErrs = obs.Default().Counter("atum_serve_request_errors_total")
)

// Options tunes the daemon. The zero value picks sane defaults.
type Options struct {
	// ArenaCacheBytes budgets the shared decoded-segment cache
	// (default 256 MB).
	ArenaCacheBytes int64

	// SpoolBytes is how far the slowest live segment streamer may trail
	// a capture before the capture degrades to counted drops (default
	// 8 MB). Captures with no attached streamer spool without limit.
	SpoolBytes int

	// SegmentBytes is the default per-segment capture buffer when a
	// session doesn't choose one (default 64 KB).
	SegmentBytes uint32

	// Budget is the default instruction budget per capture session when
	// the request doesn't set one (default 50M instructions).
	Budget uint64
}

func (o Options) withDefaults() Options {
	if o.ArenaCacheBytes == 0 {
		o.ArenaCacheBytes = 256 << 20
	}
	if o.SpoolBytes == 0 {
		o.SpoolBytes = 8 << 20
	}
	if o.SegmentBytes == 0 {
		o.SegmentBytes = 64 << 10
	}
	if o.Budget == 0 {
		o.Budget = 50_000_000
	}
	return o
}

// Server implements http.Handler for the whole API surface.
type Server struct {
	opts   Options
	mux    *http.ServeMux
	arenas *arenaCache

	mu      sync.Mutex
	tenants map[string]*tenant
}

// NewServer builds a daemon with no tenants yet; tenants materialise on
// first use of their name.
func NewServer(opts Options) *Server {
	s := &Server{
		opts:    opts.withDefaults(),
		mux:     http.NewServeMux(),
		arenas:  newArenaCache(opts.withDefaults().ArenaCacheBytes),
		tenants: map[string]*tenant{},
	}
	s.routes()
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	mReqs.Inc()
	s.mux.ServeHTTP(w, r)
}

// routes mounts every endpoint under the api.Version prefix, plus the
// global metrics pages. Per-tenant metrics are a route like any other —
// the same mux serves a tenant's isolated registry and the daemon-wide
// one.
func (s *Server) routes() {
	p := "/" + api.Version + "/tenants/{tenant}"
	s.mux.HandleFunc("POST "+p+"/sessions", s.tenantHandler(s.handleCreateSession))
	s.mux.HandleFunc("GET "+p+"/sessions", s.tenantHandler(s.handleListSessions))
	s.mux.HandleFunc("GET "+p+"/sessions/{name}", s.tenantHandler(s.handleGetSession))
	s.mux.HandleFunc("DELETE "+p+"/sessions/{name}", s.tenantHandler(s.handleCloseSession))
	s.mux.HandleFunc("GET "+p+"/sessions/{name}/segments", s.tenantHandler(s.handleStreamSegments))
	s.mux.HandleFunc("PUT "+p+"/traces/{name}", s.tenantHandler(s.handlePutTrace))
	s.mux.HandleFunc("GET "+p+"/traces", s.tenantHandler(s.handleListTraces))
	s.mux.HandleFunc("GET "+p+"/traces/{name}", s.tenantHandler(s.handleGetTrace))
	s.mux.HandleFunc("GET "+p+"/traces/{name}/data", s.tenantHandler(s.handleTraceData))
	s.mux.HandleFunc("GET "+p+"/traces/{name}/lint", s.tenantHandler(s.handleLintTrace))
	s.mux.HandleFunc("POST "+p+"/analyses", s.tenantHandler(s.handleAnalyze))
	s.mux.HandleFunc("GET "+p+"/metrics", s.tenantHandler(func(w http.ResponseWriter, r *http.Request, t *tenant) {
		t.reg.Handler().ServeHTTP(w, r)
	}))
	s.mux.Handle("GET /metrics", obs.Default().Handler())
	s.mux.Handle("GET /debug/vars", obs.Default().Handler())
}

// tenantHandler resolves (creating on first use) the tenant named in
// the path.
func (s *Server) tenantHandler(fn func(http.ResponseWriter, *http.Request, *tenant)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("tenant")
		if err := validName(name); err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("tenant: %w", err))
			return
		}
		s.mu.Lock()
		t := s.tenants[name]
		if t == nil {
			t = newTenant(name)
			s.tenants[name] = t
		}
		s.mu.Unlock()
		fn(w, r, t)
	}
}

func httpError(w http.ResponseWriter, code int, err error) {
	mReqErrs.Inc()
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(api.Error{Error: err.Error()})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	json.NewEncoder(w).Encode(v)
}

func (s *Server) handleCreateSession(w http.ResponseWriter, r *http.Request, t *tenant) {
	var req api.CreateSessionRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	sess, err := t.startSession(req, s.opts)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	w.WriteHeader(http.StatusCreated)
	writeJSON(w, sess.info())
}

func (s *Server) handleListSessions(w http.ResponseWriter, r *http.Request, t *tenant) {
	t.mu.Lock()
	infos := make([]api.SessionInfo, 0, len(t.sessions))
	for _, sess := range t.sessions {
		infos = append(infos, sess.info())
	}
	t.mu.Unlock()
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	writeJSON(w, infos)
}

func (s *Server) session(t *tenant, name string) (*session, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	sess := t.sessions[name]
	if sess == nil {
		return nil, fmt.Errorf("tenant %s has no session %q", t.name, name)
	}
	return sess, nil
}

func (s *Server) handleGetSession(w http.ResponseWriter, r *http.Request, t *tenant) {
	sess, err := s.session(t, r.PathValue("name"))
	if err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, sess.info())
}

// handleCloseSession requests a stop and waits for the capture to drain
// fully, so the info it returns carries the final accounting:
// Recorded == Spilled + Lost, always.
func (s *Server) handleCloseSession(w http.ResponseWriter, r *http.Request, t *tenant) {
	sess, err := s.session(t, r.PathValue("name"))
	if err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	sess.requestStop()
	writeJSON(w, sess.info())
}

// handleStreamSegments streams the session's backing trace bytes from
// the start, live: bytes flush as segments spill, and the stream ends
// when the capture closes. While attached, the client participates in
// the spool-lag accounting — draining too slowly degrades the capture
// to counted drops rather than stalling it or buffering without bound.
func (s *Server) handleStreamSegments(w http.ResponseWriter, r *http.Request, t *tenant) {
	sess, err := s.session(t, r.PathValue("name"))
	if err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	rd := sess.st.newReader()
	defer rd.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	flusher, _ := w.(http.Flusher)
	buf := make([]byte, 64<<10)
	for {
		n, err := rd.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return // client went away; Close detaches us from lag accounting
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}

// handlePutTrace stores an uploaded complete trace (either container
// format) under the given name, validating the header before accepting.
func (s *Server) handlePutTrace(w http.ResponseWriter, r *http.Request, t *tenant) {
	name := r.PathValue("name")
	if err := validName(name); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	f, err := trace.OpenReaderAt(bytes.NewReader(body), int64(len(body)))
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("not a valid trace: %w", err))
		return
	}
	f.Close()
	st := t.createTrace(name, s.opts.SpoolBytes)
	st.setBytes(body)
	w.WriteHeader(http.StatusCreated)
	writeJSON(w, s.traceInfo(t, st))
}

// traceInfo builds the header-only description of a stored trace: the
// segment index comes from walking 59-byte headers, no payload decode.
// A live capture's spool can end mid-anything, so open errors on an
// incomplete trace degrade to a bytes-only answer instead of failing.
func (s *Server) traceInfo(t *tenant, st *storedTrace) api.TraceInfo {
	buf, complete := st.snapshot()
	info := api.TraceInfo{Name: st.name, Tenant: t.name, Bytes: uint64(len(buf)), Complete: complete}
	f, err := trace.OpenReaderAt(bytes.NewReader(buf), int64(len(buf)))
	if err != nil {
		return info
	}
	defer f.Close()
	info.Meta = f.Meta()
	info.Records = f.NumRecords()
	info.Segmented = true // every stored trace is a segment stream
	info.Segments = f.Segments()
	return info
}

func (s *Server) handleListTraces(w http.ResponseWriter, r *http.Request, t *tenant) {
	names := t.traceNames()
	sort.Strings(names)
	infos := make([]api.TraceInfo, 0, len(names))
	for _, n := range names {
		st, err := t.trace(n)
		if err != nil {
			continue // raced a concurrent replace
		}
		infos = append(infos, s.traceInfo(t, st))
	}
	writeJSON(w, infos)
}

func (s *Server) handleGetTrace(w http.ResponseWriter, r *http.Request, t *tenant) {
	st, err := t.trace(r.PathValue("name"))
	if err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, s.traceInfo(t, st))
}

// handleTraceData returns the trace bytes as stored right now (the
// whole file for a complete trace; the spool so far for a live one).
func (s *Server) handleTraceData(w http.ResponseWriter, r *http.Request, t *tenant) {
	st, err := t.trace(r.PathValue("name"))
	if err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	buf, _ := st.snapshot()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(buf)
}

// handleLintTrace decodes the stored trace and runs the shared lint
// checks over it — the same findings schema atum-vet -json emits.
func (s *Server) handleLintTrace(w http.ResponseWriter, r *http.Request, t *tenant) {
	st, err := t.trace(r.PathValue("name"))
	if err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	buf, complete := st.snapshot()
	if !complete {
		httpError(w, http.StatusConflict, fmt.Errorf("trace %q is still capturing", st.name))
		return
	}
	f, err := trace.OpenReaderAt(bytes.NewReader(buf), int64(len(buf)))
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	defer f.Close()
	chunks, err := s.arenas.segments(arenaKey{tenant: t.name, trace: st.name, gen: st.gen}, f, 0)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	recs := trace.NewArenaFromChunks(chunks).Flatten()
	fs := trace.LintFindings(recs)
	// Container-framing checks (declared-vs-inflated length on
	// compressed segments) ride along: they audit the bytes, not the
	// records, so the record lint alone would miss them.
	fs = append(fs, f.LintContainer()...)
	if fs == nil {
		fs = []findings.Finding{}
	}
	writeJSON(w, api.LintResponse{Trace: st.name, Findings: fs})
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request, t *tenant) {
	var req api.AnalysisRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	resp, err := s.runAnalysis(t, req)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, resp)
}
