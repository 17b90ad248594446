package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"atum/internal/serve/api"
)

// giantConfigs are two analysis requests whose geometry passes
// Validate but asks for tens of GiB of simulator state: a 2 GiB cache
// of 1-byte blocks (2^31 lines) and a 2^31-entry TB.
var giantConfigs = []string{
	`{"trace":"tiny","kind":"caches","caches":[{"SizeBytes":2147483648,"BlockBytes":1,"Assoc":1}]}`,
	`{"trace":"tiny","kind":"tbs","tbs":[{"Entries":2147483648,"Assoc":1}]}`,
}

// analysisServer returns a server whose tenant holds one small stored
// trace, "tiny", uploaded through the handler itself.
func analysisServer(tb testing.TB, tenant string) *Server {
	tb.Helper()
	srv := NewServer(Options{})
	data := makeSegmentedTrace(tb, makeRecords(500), 200)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPut, "/v1/tenants/"+tenant+"/traces/tiny", bytes.NewReader(data)))
	if rec.Code != http.StatusCreated {
		tb.Fatalf("upload: HTTP %d: %s", rec.Code, rec.Body)
	}
	return srv
}

// analyze posts body to the tenant's analyses route straight through
// ServeHTTP, so a handler panic reaches the caller instead of
// net/http's per-connection recover.
func analyze(srv *Server, tenant, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/tenants/"+tenant+"/analyses", strings.NewReader(body)))
	return rec
}

// TestAnalysisSimStateBound: a request whose configurations ask for more
// simulator state than maxSimLines allows is a bad request, rejected
// before any simulator is built. A hierarchy counts its L1 twice (L1 I
// and L1 D): two 2^21-line L1s and a one-line L2 are one line over.
func TestAnalysisSimStateBound(t *testing.T) {
	srv := analysisServer(t, "alpha")
	hier := `{"trace":"tiny","kind":"hierarchies","hierarchies":[{"L1":{"SizeBytes":2097152,"BlockBytes":1,"Assoc":1},"L2":{"SizeBytes":16,"BlockBytes":16,"Assoc":1}}]}`
	for _, body := range []string{giantConfigs[0], giantConfigs[1], hier} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rec := analyze(srv, "alpha", body)
		runtime.ReadMemStats(&after)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want %d", body, rec.Code, http.StatusBadRequest)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Errorf("%s: allocated %d bytes before rejecting, want under 1 MiB", body, alloc)
		}
	}
}

// FuzzAnalysisRequest sends arbitrary bytes as an analysis request body.
// Whatever they say, the daemon answers 200 with a decodable response
// or 400, and never panics.
func FuzzAnalysisRequest(f *testing.F) {
	for _, seed := range []string{
		`{"trace":"tiny","kind":"caches","caches":[{"SizeBytes":1024,"BlockBytes":16,"Assoc":2,"WriteAllocate":true}]}`,
		`{"trace":"tiny","kind":"hierarchies","hierarchies":[{"L1":{"SizeBytes":1024,"BlockBytes":16,"Assoc":1},"L2":{"SizeBytes":8192,"BlockBytes":16,"Assoc":2}}]}`,
		`{"trace":"tiny","kind":"tbs","tbs":[{"Entries":64,"Assoc":2,"SplitSystem":true,"IncludeSystem":true}]}`,
		`{"trace":"tiny","kind":"stackdist","stackdist":{"BlockBytes":32},"user_only":true}`,
		`{"trace":"tiny","kind":"summary","cpu":0}`,
		`{"trace":"tiny","kind":"caches","caches":[{"SizeBytes":1024,"BlockBytes":16,"Assoc":2}],"backpressure":"drop","queue_chunks":8}`,
		giantConfigs[0],
		giantConfigs[1],
	} {
		f.Add([]byte(seed))
	}
	srv := analysisServer(f, "fz")
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := analyze(srv, "fz", string(body))
		switch rec.Code {
		case http.StatusOK:
			var resp api.AnalysisResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("200 body does not decode: %v\n%s", err, rec.Body)
			}
		case http.StatusBadRequest:
		default:
			t.Fatalf("HTTP %d: %s", rec.Code, rec.Body)
		}
	})
}
