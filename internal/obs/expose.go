package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
)

// Exposition. Two formats over one registry walk:
//
// WriteText renders the Prometheus-style plain-text form — one
// `name value` line per counter/gauge, and for each histogram the
// cumulative `_bucket{le="..."}` series plus `_sum` and `_count` —
// sorted by metric name, so output is byte-deterministic for a given
// set of metric values (the golden test pins it).
//
// WriteJSON renders the expvar convention: one top-level JSON object,
// metric names as keys, scalar values for counters/gauges and a
// {count, sum, buckets} object for histograms. Handler serves text by
// default and JSON when the request asks for it (expvar's /debug/vars
// shape), so standard expvar scrapers work unmodified.

// WriteText writes the plain-text exposition of every metric, sorted by
// name.
func (r *Registry) WriteText(w io.Writer) error {
	for _, name := range r.names() {
		switch m := r.get(name).(type) {
		case *Counter:
			if _, err := fmt.Fprintf(w, "%s %d\n", name, m.Value()); err != nil {
				return err
			}
		case *Gauge:
			if _, err := fmt.Fprintf(w, "%s %s\n", name, formatFloat(m.Value())); err != nil {
				return err
			}
		case *Histogram:
			bounds, cum := m.Buckets()
			for i, b := range bounds {
				if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, formatFloat(b), cum[i]); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum[len(cum)-1]); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_sum %s\n", name, formatFloat(m.Sum())); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_count %d\n", name, m.Count()); err != nil {
				return err
			}
		}
	}
	return nil
}

// String returns the plain-text exposition.
func (r *Registry) String() string {
	var b strings.Builder
	r.WriteText(&b)
	return b.String()
}

// histogramJSON is the JSON shape of one histogram.
type histogramJSON struct {
	Count   uint64            `json:"count"`
	Sum     float64           `json:"sum"`
	Buckets map[string]uint64 `json:"buckets"`
}

// WriteJSON writes the expvar-compatible JSON object form.
func (r *Registry) WriteJSON(w io.Writer) error {
	names := r.names()
	obj := make(map[string]any, len(names))
	for _, name := range names {
		switch m := r.get(name).(type) {
		case *Counter:
			obj[name] = m.Value()
		case *Gauge:
			obj[name] = m.Value()
		case *Histogram:
			bounds, cum := m.Buckets()
			bk := make(map[string]uint64, len(cum))
			for i, b := range bounds {
				bk[formatFloat(b)] = cum[i]
			}
			bk["+Inf"] = cum[len(cum)-1]
			obj[name] = histogramJSON{Count: m.Count(), Sum: m.Sum(), Buckets: bk}
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(obj)
}

// Handler serves the registry over HTTP: plain text by default, the
// expvar JSON object when the client asks for JSON (Accept header or
// ?format=json), so the same endpoint satisfies both a human with curl
// and an expvar scraper.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		wantJSON := req.URL.Query().Get("format") == "json" ||
			strings.Contains(req.Header.Get("Accept"), "application/json")
		if wantJSON {
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			r.WriteJSON(w)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		r.WriteText(w)
	})
}

// Serve starts an HTTP server exposing the registry at /metrics (text
// or JSON by negotiation) and /debug/vars (always JSON, the expvar
// path), and the process's Go runtime profiles at /debug/pprof/. It
// returns the bound address — addr may use port 0 — and a stop
// function. The server runs until stopped; it never blocks the caller.
func (r *Registry) Serve(addr string) (bound string, stop func() error, err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", r.Handler())
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		r.WriteJSON(w)
	})
	// Registered on this mux, not http.DefaultServeMux, so only the
	// metrics address serves profiles.
	mux.HandleFunc("/debug/pprof/", pprof.Index) // heap, goroutine, allocs, ... by name
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	return ln.Addr().String(), srv.Close, nil
}
