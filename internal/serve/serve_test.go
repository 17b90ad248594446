package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"atum/internal/cache"
	"atum/internal/kernel"
	"atum/internal/obs"
	"atum/internal/serve/api"
	"atum/internal/stackdist"
	"atum/internal/sweep"
	"atum/internal/trace"
)

// makeRecords builds a plausible synthetic trace: mostly user ifetches
// and data refs over a few pages, with context switches between two
// PIDs so summaries and PID-tagged sims have something to chew on.
func makeRecords(n int) []trace.Word {
	recs := make([]trace.Word, 0, n)
	pid := uint8(1)
	for i := 0; len(recs) < n; i++ {
		if i%257 == 0 {
			pid = 1 + pid%2
			recs = append(recs, trace.Pack(trace.KindCtxSwitch, 0, 0, pid, false, false, uint16(pid)))
			continue
		}
		kind, addr, user := trace.KindIFetch, uint32(0x1000+(i%512)*4), true
		switch i % 5 {
		case 1:
			kind, addr = trace.KindDRead, uint32(0x40000+(i%128)*4)
		case 3:
			kind, addr = trace.KindDWrite, uint32(0x48000+(i%64)*4)
		case 4:
			kind, user = trace.KindPTERead, false
		}
		recs = append(recs, trace.Pack(kind, addr, 4, pid, user, false, 0))
	}
	return recs
}

// makeSegmentedTrace encodes recs as a segmented stream image with
// segsize records per segment.
func makeSegmentedTrace(t testing.TB, recs []trace.Word, segsize int) []byte {
	t.Helper()
	return makeSegmentedTraceEnc(t, recs, segsize, trace.SegEncRaw)
}

// makeSegmentedTraceEnc is makeSegmentedTrace with a chosen per-segment
// payload encoding.
func makeSegmentedTraceEnc(t testing.TB, recs []trace.Word, segsize int, enc uint8) []byte {
	t.Helper()
	var buf bytes.Buffer
	sw, err := trace.NewSegmentWriter(&buf, trace.CodecDelta, "synthetic test trace")
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.SetEncoding(enc); err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < len(recs); lo += segsize {
		hi := lo + segsize
		if hi > len(recs) {
			hi = len(recs)
		}
		if _, err := sw.WriteSegment(recs[lo:hi], trace.SegmentInfo{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func testServer(t *testing.T, opts Options) (*httptest.Server, *Server) {
	t.Helper()
	srv := NewServer(opts)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, srv
}

// waitDone polls a session until it leaves the running state.
func waitDone(t *testing.T, c *Client, name string) api.SessionInfo {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		info, err := c.Session(name)
		if err != nil {
			t.Fatal(err)
		}
		if info.State != api.SessionRunning {
			return info
		}
		if time.Now().After(deadline) {
			t.Fatalf("session %s still running after 60s: %+v", name, info)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSessionLifecycle drives the full loop on one tenant: create a
// capture with a live segment streamer attached, let it run out its
// budget, and check the accounting identity, the streamed bytes, the
// stored trace and an analysis over it all agree.
func TestSessionLifecycle(t *testing.T) {
	ts, _ := testServer(t, Options{Budget: 400_000, SegmentBytes: 16 << 10})
	c := NewClient(ts.URL, "alpha")

	info, err := c.CreateSession(api.CreateSessionRequest{Name: "cap", Workloads: []string{"sieve"}})
	if err != nil {
		t.Fatal(err)
	}
	if info.State != api.SessionRunning && info.State != api.SessionDone {
		t.Fatalf("fresh session in state %q", info.State)
	}
	if info.Trace != "cap" || info.Tenant != "alpha" {
		t.Fatalf("session misdescribed: %+v", info)
	}

	// Live streamer: read the segment stream to EOF while the capture
	// runs; the bytes must equal the stored trace afterwards.
	streamed := make(chan []byte, 1)
	go func() {
		rd, err := c.StreamSegments("cap")
		if err != nil {
			streamed <- nil
			return
		}
		b, _ := io.ReadAll(rd)
		rd.Close()
		streamed <- b
	}()

	final := waitDone(t, c, "cap")
	if final.State != api.SessionDone {
		t.Fatalf("session ended in state %q (error %q)", final.State, final.Error)
	}
	if final.Recorded != final.Spilled+final.Lost {
		t.Fatalf("accounting broken: recorded %d != spilled %d + lost %d",
			final.Recorded, final.Spilled, final.Lost)
	}
	if final.Spilled == 0 || final.Segments == 0 {
		t.Fatalf("capture produced nothing: %+v", final)
	}

	live := <-streamed
	stored, err := c.TraceData("cap")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(live, stored) {
		t.Fatalf("live stream (%d bytes) != stored trace (%d bytes)", len(live), len(stored))
	}

	// The stored trace decodes to exactly the spilled records.
	f, err := trace.OpenReaderAt(bytes.NewReader(stored), int64(len(stored)))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.NumRecords() != final.Spilled {
		t.Fatalf("stored trace holds %d records, session spilled %d", f.NumRecords(), final.Spilled)
	}

	ti, err := c.Trace("cap")
	if err != nil {
		t.Fatal(err)
	}
	if !ti.Complete || !ti.Segmented || ti.Records != final.Spilled || uint32(len(ti.Segments)) != final.Segments {
		t.Fatalf("trace info disagrees with session: %+v vs %+v", ti, final)
	}

	resp, err := c.Analyze(api.AnalysisRequest{Trace: "cap", Kind: api.KindSummary})
	if err != nil {
		t.Fatal(err)
	}
	if uint64(resp.Summary.Total) != final.Spilled {
		t.Fatalf("summary total %d != spilled %d", resp.Summary.Total, final.Spilled)
	}

	// Closing an already-finished session is a no-op returning the same
	// final accounting.
	again, err := c.CloseSession("cap")
	if err != nil {
		t.Fatal(err)
	}
	if again.Recorded != final.Recorded || again.Spilled != final.Spilled {
		t.Fatalf("re-close changed the accounting: %+v vs %+v", again, final)
	}
}

// TestCloseDuringCapture stops a long-budget session mid-flight; the
// stream must still footer cleanly and the identity must hold.
func TestCloseDuringCapture(t *testing.T) {
	ts, _ := testServer(t, Options{Budget: 2_000_000_000, SegmentBytes: 16 << 10})
	c := NewClient(ts.URL, "alpha")
	if _, err := c.CreateSession(api.CreateSessionRequest{Name: "longcap", Workloads: []string{"sieve", "list"}}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond) // let it capture something
	final, err := c.CloseSession("longcap")
	if err != nil {
		t.Fatal(err)
	}
	if final.State != api.SessionDone {
		t.Fatalf("stopped session in state %q (error %q)", final.State, final.Error)
	}
	if final.Recorded != final.Spilled+final.Lost {
		t.Fatalf("accounting broken after mid-flight close: %+v", final)
	}
	stored, err := c.TraceData("longcap")
	if err != nil {
		t.Fatal(err)
	}
	f, err := trace.OpenReaderAt(bytes.NewReader(stored), int64(len(stored)))
	if err != nil {
		t.Fatalf("mid-flight close left an invalid stream: %v", err)
	}
	f.Close()
}

// TestTenantIsolation pins that names and metrics do not leak across
// tenants: beta cannot see alpha's traces or sessions, and alpha's
// capture telemetry appears only on alpha's metrics page.
func TestTenantIsolation(t *testing.T) {
	ts, _ := testServer(t, Options{Budget: 300_000, SegmentBytes: 16 << 10})
	alpha := NewClient(ts.URL, "alpha")
	beta := NewClient(ts.URL, "beta")

	data := makeSegmentedTrace(t, makeRecords(5000), 1000)
	if _, err := alpha.UploadTrace("mine", data); err != nil {
		t.Fatal(err)
	}
	if _, err := beta.Trace("mine"); err == nil {
		t.Fatal("beta can read alpha's trace")
	}
	if _, err := beta.TraceData("mine"); err == nil {
		t.Fatal("beta can read alpha's trace bytes")
	}

	if _, err := alpha.CreateSession(api.CreateSessionRequest{Name: "iso", Workloads: []string{"sieve"}}); err != nil {
		t.Fatal(err)
	}
	waitDone(t, alpha, "iso")
	if _, err := beta.Session("iso"); err == nil {
		t.Fatal("beta can read alpha's session")
	}

	am, err := alpha.MetricsText()
	if err != nil {
		t.Fatal(err)
	}
	bm, err := beta.MetricsText()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(am, "atum_spill_records_total") {
		t.Fatalf("alpha's capture metrics missing from alpha's page:\n%s", am)
	}
	if strings.Contains(bm, "atum_spill_records_total") {
		t.Fatalf("alpha's capture metrics leaked into beta's page:\n%s", bm)
	}

	// The global page serves daemon-wide counters on the same mux.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "atum_serve_requests_total") {
		t.Fatal("global metrics page missing daemon counters")
	}
}

// TestAnalysisRemoteVsLocal uploads a synthetic trace and checks the
// daemon's sweep results — plain, streamed, and their JSON wire forms —
// are identical to running the same sweep functions locally over the
// same bytes.
func TestAnalysisRemoteVsLocal(t *testing.T) {
	ts, _ := testServer(t, Options{})
	c := NewClient(ts.URL, "alpha")

	recs := makeRecords(30_000)
	data := makeSegmentedTrace(t, recs, 7000)
	if _, err := c.UploadTrace("syn", data); err != nil {
		t.Fatal(err)
	}

	cfgs := []cache.Config{
		{Label: "a", SizeBytes: 1 << 10, BlockBytes: 16, Assoc: 1, Replacement: cache.LRU, WriteAllocate: true, PIDTags: true},
		{Label: "b", SizeBytes: 4 << 10, BlockBytes: 16, Assoc: 2, Replacement: cache.LRU, WriteAllocate: true, PIDTags: true},
	}
	run := cache.RunOptions{IncludePTE: true}

	f, err := trace.OpenReaderAt(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	arena, err := f.Arena(0)
	if err != nil {
		t.Fatal(err)
	}
	local, err := sweep.Caches(arena, cfgs, run, 0)
	if err != nil {
		t.Fatal(err)
	}

	resp, err := c.Analyze(api.AnalysisRequest{Trace: "syn", Kind: api.KindCaches, Caches: cfgs, Run: run})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resp.Caches, local) {
		t.Fatalf("remote results differ from local:\n%+v\nvs\n%+v", resp.Caches, local)
	}
	lj, _ := json.Marshal(local)
	rj, _ := json.Marshal(resp.Caches)
	if !bytes.Equal(lj, rj) {
		t.Fatal("wire forms differ")
	}

	// A request still carrying a retired field — the SkipPhys run option,
	// or the backpressure policy and its queue size — is answered as if
	// the field were absent.
	cj, _ := json.Marshal(cfgs)
	for _, retired := range []string{
		`"run":{"IncludePTE":true,"SkipPhys":true}`,
		`"run":{"IncludePTE":true},"backpressure":"drop","queue_chunks":8`,
	} {
		body := `{"trace":"syn","kind":"caches","caches":` + string(cj) + `,` + retired + `}`
		hresp, err := http.Post(ts.URL+"/v1/tenants/alpha/analyses", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var old api.AnalysisResponse
		err = json.NewDecoder(hresp.Body).Decode(&old)
		hresp.Body.Close()
		if err != nil || hresp.StatusCode != http.StatusOK {
			t.Fatalf("request with %s: HTTP %d, %v", retired, hresp.StatusCode, err)
		}
		if !reflect.DeepEqual(old.Caches, local) {
			t.Fatalf("request with %s: results differ from local:\n%+v\nvs\n%+v", retired, old.Caches, local)
		}
	}

	// UserOnly filtering matches the local FilterUser path.
	userLocal, err := sweep.Caches(arena.FilterUser(), cfgs[:1], run, 0)
	if err != nil {
		t.Fatal(err)
	}
	uresp, err := c.Analyze(api.AnalysisRequest{Trace: "syn", Kind: api.KindCaches, Caches: cfgs[:1], Run: run, UserOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(uresp.Caches, userLocal) {
		t.Fatalf("user-only remote differs from local FilterUser sweep")
	}

	// The stackdist kind runs the engine local cachesim -mattson runs: a
	// Stream on a pipeline over the same bytes, user-filtered by the
	// pipeline for user_only.
	sdOpts := stackdist.Options{BlockBytes: 16, PIDTag: true, IncludePTE: true}
	for _, userOnly := range []bool{false, true} {
		p := sweep.NewPipeline(0)
		if userOnly {
			p.SetFilter(trace.UserRecord)
		}
		collect := sweep.AddSim(p, "mattson", stackdist.NewStream(sdOpts))
		p.FeedSource(arena)
		local, err := collect()
		if err != nil {
			t.Fatal(err)
		}
		resp, err := c.Analyze(api.AnalysisRequest{Trace: "syn", Kind: api.KindStackdist, Stackdist: &sdOpts, UserOnly: userOnly})
		if err != nil {
			t.Fatal(err)
		}
		if local.Total == 0 || !reflect.DeepEqual(resp.Stackdist, local) {
			t.Fatalf("user_only=%v: remote stackdist profile differs from local Stream (total %d/%d, cold %d/%d)",
				userOnly, resp.Stackdist.Total, local.Total, resp.Stackdist.Cold, local.Cold)
		}
		lj, _ := json.Marshal(local)
		rj, _ := json.Marshal(resp.Stackdist)
		if !bytes.Equal(lj, rj) {
			t.Fatalf("user_only=%v: stackdist wire forms differ", userOnly)
		}
	}
}

// TestAnalysisCPUFilter: the cpu field replays exactly the segments
// that processor captured, so each core's remote sweep equals a local
// ArenaCPU sweep; a CPU no segment carries is a bad request rather than
// an analysis of nothing.
func TestAnalysisCPUFilter(t *testing.T) {
	ts, _ := testServer(t, Options{})
	c := NewClient(ts.URL, "alpha")

	// Segments dealt round-robin to two CPUs, as a merged SMP capture.
	recs := makeRecords(20_000)
	var buf bytes.Buffer
	sw, err := trace.NewSegmentWriter(&buf, trace.CodecDelta, "two-CPU test trace")
	if err != nil {
		t.Fatal(err)
	}
	for i, lo := 0, 0; lo < len(recs); i, lo = i+1, lo+3000 {
		if _, err := sw.WriteSegment(recs[lo:min(lo+3000, len(recs))], trace.SegmentInfo{CPU: uint16(i % 2)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := c.UploadTrace("smp", data); err != nil {
		t.Fatal(err)
	}
	f, err := trace.OpenReaderAt(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	cfgs := []cache.Config{
		{Label: "a", SizeBytes: 1 << 10, BlockBytes: 16, Assoc: 1, Replacement: cache.LRU, WriteAllocate: true, PIDTags: true},
	}
	run := cache.RunOptions{IncludePTE: true}
	for cpu := 0; cpu < 2; cpu++ {
		a, err := f.ArenaCPU(0, cpu)
		if err != nil {
			t.Fatal(err)
		}
		local, err := sweep.Caches(a, cfgs, run, 0)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := c.Analyze(api.AnalysisRequest{Trace: "smp", Kind: api.KindCaches, Caches: cfgs, Run: run, CPU: &cpu})
		if err != nil {
			t.Fatalf("cpu %d: %v", cpu, err)
		}
		if !reflect.DeepEqual(resp.Caches, local) {
			t.Fatalf("cpu %d: remote results differ from local ArenaCPU sweep:\n%+v\nvs\n%+v", cpu, resp.Caches, local)
		}
	}
	for _, cpu := range []int{5, -1} {
		body := fmt.Sprintf(`{"trace":"smp","kind":"summary","cpu":%d}`, cpu)
		resp, err := http.Post(ts.URL+"/v1/tenants/alpha/analyses", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("cpu %d: HTTP %d, want %d", cpu, resp.StatusCode, http.StatusBadRequest)
		}
	}
}

// TestLintEndpoint checks the lint route returns the shared findings
// schema over the daemon's decoded arena.
func TestLintEndpoint(t *testing.T) {
	ts, _ := testServer(t, Options{})
	c := NewClient(ts.URL, "alpha")
	data := makeSegmentedTrace(t, makeRecords(4000), 1000)
	if _, err := c.UploadTrace("ok", data); err != nil {
		t.Fatal(err)
	}
	lr, err := c.Lint("ok")
	if err != nil {
		t.Fatal(err)
	}
	if lr.Trace != "ok" || lr.Findings == nil {
		t.Fatalf("lint response malformed: %+v", lr)
	}
	for _, f := range lr.Findings {
		if f.Plane != "trace" {
			t.Fatalf("lint finding on wrong plane: %+v", f)
		}
	}
}

// TestArenaCacheMetricsOverHTTP pins the acceptance criterion: after
// repeated analyses over stored traces on a byte-budgeted server, the
// hit counter moved and the budget forced evictions.
func TestArenaCacheMetricsOverHTTP(t *testing.T) {
	recs := makeRecords(40_000)
	data := makeSegmentedTrace(t, recs, 4000) // 10 segments
	// Budget ~ a third of the decoded trace: analyses must evict.
	budget := int64(len(recs)) * trace.RecordBytes / 3
	ts, _ := testServer(t, Options{ArenaCacheBytes: budget})
	c := NewClient(ts.URL, "alpha")
	if _, err := c.UploadTrace("big", data); err != nil {
		t.Fatal(err)
	}
	hits0, _ := obs.Default().PeekCounter("atum_serve_arena_cache_hits_total")
	evict0, _ := obs.Default().PeekCounter("atum_serve_arena_cache_evictions_total")
	for i := 0; i < 3; i++ {
		if _, err := c.Analyze(api.AnalysisRequest{Trace: "big", Kind: api.KindSummary}); err != nil {
			t.Fatal(err)
		}
	}
	hits1, _ := obs.Default().PeekCounter("atum_serve_arena_cache_hits_total")
	evict1, _ := obs.Default().PeekCounter("atum_serve_arena_cache_evictions_total")
	if hits1 == hits0 {
		t.Fatal("repeated analyses produced no arena cache hits")
	}
	if evict1 == evict0 {
		t.Fatal("undersized arena cache never evicted")
	}
}

// TestNoProfilesOnAPI: the API handler answers 404 for the Go
// profiles. They are served only on -metrics-addr, whose mux
// obs.Registry.Serve builds; importing net/http/pprof also puts them on
// http.DefaultServeMux, which the API never uses.
func TestNoProfilesOnAPI(t *testing.T) {
	ts, _ := testServer(t, Options{})
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/heap?debug=1"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: status %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestServeLoad is the concurrency pin: 4 tenants x 25 clients querying
// and analysing concurrently (run under -race), plus one real capture
// session per tenant with a live streamer attached. Every session's
// accounting identity must hold, the shared arena cache must be serving
// hits, and a remote sweep must equal its local counterpart while all
// of it is in flight.
func TestServeLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("load test")
	}
	ts, _ := testServer(t, Options{Budget: 250_000, SegmentBytes: 16 << 10})
	tenants := []string{"t0", "t1", "t2", "t3"}

	recs := makeRecords(20_000)
	data := makeSegmentedTrace(t, recs, 4000)
	cfg := cache.Config{Label: "ld", SizeBytes: 2 << 10, BlockBytes: 16, Assoc: 1,
		Replacement: cache.LRU, WriteAllocate: true, PIDTags: true}
	run := cache.RunOptions{IncludePTE: true}

	f, err := trace.OpenReaderAt(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	arena, err := f.Arena(0)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	local, err := sweep.Caches(arena, []cache.Config{cfg}, run, 0)
	if err != nil {
		t.Fatal(err)
	}

	for _, tn := range tenants {
		if _, err := NewClient(ts.URL, tn).UploadTrace("shared", data); err != nil {
			t.Fatal(err)
		}
	}
	hits0, _ := obs.Default().PeekCounter("atum_serve_arena_cache_hits_total")

	// One live capture per tenant, each with a streamer draining it.
	type capture struct {
		tenant   string
		client   *Client
		streamed chan []byte
	}
	caps := make([]capture, len(tenants))
	for i, tn := range tenants {
		c := NewClient(ts.URL, tn)
		if _, err := c.CreateSession(api.CreateSessionRequest{Name: "cap", Workloads: []string{"sieve"}}); err != nil {
			t.Fatal(err)
		}
		ch := make(chan []byte, 1)
		go func() {
			rd, err := c.StreamSegments("cap")
			if err != nil {
				ch <- nil
				return
			}
			b, _ := io.ReadAll(rd)
			rd.Close()
			ch <- b
		}()
		caps[i] = capture{tenant: tn, client: c, streamed: ch}
	}

	// 100 concurrent query clients across the 4 tenants.
	const perTenant = 25
	var wg sync.WaitGroup
	errs := make(chan error, len(tenants)*perTenant)
	for _, tn := range tenants {
		for k := 0; k < perTenant; k++ {
			wg.Add(1)
			go func(tn string, k int) {
				defer wg.Done()
				c := NewClient(ts.URL, tn)
				for iter := 0; iter < 3; iter++ {
					switch (k + iter) % 4 {
					case 0:
						if _, err := c.Traces(); err != nil {
							errs <- fmt.Errorf("%s list: %w", tn, err)
							return
						}
					case 1:
						info, err := c.Trace("shared")
						if err != nil || !info.Complete {
							errs <- fmt.Errorf("%s info: %v %+v", tn, err, info)
							return
						}
					case 2:
						resp, err := c.Analyze(api.AnalysisRequest{Trace: "shared", Kind: api.KindCaches,
							Caches: []cache.Config{cfg}, Run: run})
						if err != nil {
							errs <- fmt.Errorf("%s analyze: %w", tn, err)
							return
						}
						if !reflect.DeepEqual(resp.Caches, local) {
							errs <- fmt.Errorf("%s: remote sweep diverged from local under load", tn)
							return
						}
					case 3:
						if _, err := c.MetricsText(); err != nil {
							errs <- fmt.Errorf("%s metrics: %w", tn, err)
							return
						}
					}
				}
			}(tn, k)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Every capture ends with the identity intact and a valid stream.
	for _, cp := range caps {
		final, err := cp.client.CloseSession("cap")
		if err != nil {
			t.Fatalf("%s close: %v", cp.tenant, err)
		}
		if final.State != api.SessionDone {
			t.Errorf("%s: session state %q (error %q)", cp.tenant, final.State, final.Error)
		}
		if final.Recorded != final.Spilled+final.Lost {
			t.Errorf("%s: recorded %d != spilled %d + lost %d",
				cp.tenant, final.Recorded, final.Spilled, final.Lost)
		}
		live := <-cp.streamed
		stored, err := cp.client.TraceData("cap")
		if err != nil {
			t.Fatalf("%s data: %v", cp.tenant, err)
		}
		if !bytes.Equal(live, stored) {
			t.Errorf("%s: live stream != stored trace", cp.tenant)
		}
	}

	hits1, _ := obs.Default().PeekCounter("atum_serve_arena_cache_hits_total")
	if hits1 <= hits0 {
		t.Error("load produced no arena cache hits")
	}
}

// TestValidation pins the obvious request rejections.
func TestValidation(t *testing.T) {
	ts, _ := testServer(t, Options{})
	c := NewClient(ts.URL, "alpha")
	if _, err := c.CreateSession(api.CreateSessionRequest{Name: "../evil"}); err == nil {
		t.Error("path-hostile session name accepted")
	}
	if _, err := c.CreateSession(api.CreateSessionRequest{Name: "x", Codec: "bogus"}); err == nil {
		t.Error("bogus codec accepted")
	}
	for _, w := range []float64{-0.1, 1.5} {
		if _, err := c.CreateSession(api.CreateSessionRequest{Name: "x", Watermark: w}); err == nil {
			t.Errorf("watermark %v accepted", w)
		}
	}
	if _, err := c.UploadTrace("junk", []byte("not a trace at all")); err == nil {
		t.Error("junk upload accepted")
	}
	if _, err := c.Analyze(api.AnalysisRequest{Trace: "absent", Kind: api.KindSummary}); err == nil {
		t.Error("analysis over missing trace accepted")
	}
	data := makeSegmentedTrace(t, makeRecords(100), 50)
	if _, err := c.UploadTrace("tiny", data); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Analyze(api.AnalysisRequest{Trace: "tiny", Kind: "nonsense"}); err == nil {
		t.Error("unknown analysis kind accepted")
	}
	if _, err := c.Analyze(api.AnalysisRequest{Trace: "tiny", Kind: api.KindCaches}); err == nil {
		t.Error("caches analysis with no configs accepted")
	}
	// A stack-distance block size that is not a power of two is a bad
	// request, not an analysis silently run at the next smaller size.
	for body, want := range map[string]int{
		`{"trace":"tiny","kind":"stackdist","stackdist":{"BlockBytes":24}}`: http.StatusBadRequest,
		`{"trace":"tiny","kind":"stackdist","stackdist":{"BlockBytes":32}}`: http.StatusOK,
		`{"trace":"tiny","kind":"stackdist"}`:                               http.StatusOK,
	} {
		resp, err := http.Post(ts.URL+"/v1/tenants/alpha/analyses", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("%s: HTTP %d, want %d", body, resp.StatusCode, want)
		}
	}
}

// TestWatermarkImpliesSegmentSize pins the v1 watermark field to the
// segment size it implies: w × capacity, where capacity is the segment
// size clamped to the reserved region and record-aligned, rounded down
// to a whole record and at least one record. A session with a
// watermark stores exactly the bytes of a session asking for the
// implied size (same tenant and session name, so the same stream
// meta). TestValidation rejects out-of-range watermarks.
func TestWatermarkImpliesSegmentSize(t *testing.T) {
	stored := func(budget uint64, req api.CreateSessionRequest) ([]byte, api.TraceInfo) {
		t.Helper()
		ts, _ := testServer(t, Options{Budget: budget})
		c := NewClient(ts.URL, "alpha")
		req.Name = "wm"
		req.Workloads = []string{"sieve"}
		if _, err := c.CreateSession(req); err != nil {
			t.Fatal(err)
		}
		if info := waitDone(t, c, "wm"); info.State != api.SessionDone || info.Dropped != 0 {
			t.Fatalf("session ended %+v", info)
		}
		data, err := c.TraceData("wm")
		if err != nil {
			t.Fatal(err)
		}
		ti, err := c.Trace("wm")
		if err != nil {
			t.Fatal(err)
		}
		return data, ti
	}
	reserved := kernel.DefaultConfig().Machine.ReservedSize
	for _, tc := range []struct {
		name     string
		budget   uint64
		segBytes uint32
		w        float64
		implied  uint32
	}{
		{"half", 400_000, 16 << 10, 0.5, 8 << 10},
		{"clamped to the reserved region", 400_000, 1 << 30, 0.25, reserved / 4},
		{"one-record floor", 5_000, 64, 0.1, trace.RecordBytes},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, ti := stored(tc.budget, api.CreateSessionRequest{SegmentBytes: tc.segBytes, Watermark: tc.w})
			want, _ := stored(tc.budget, api.CreateSessionRequest{SegmentBytes: tc.implied})
			if n := len(ti.Segments); n < 2 || ti.Segments[0].Records != uint64(tc.implied/trace.RecordBytes) {
				t.Fatalf("watermark %v of %d bytes: %d segments, want several of %d records",
					tc.w, tc.segBytes, n, tc.implied/trace.RecordBytes)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("watermark %v of %d bytes stored %d bytes, segment_bytes %d stored %d",
					tc.w, tc.segBytes, len(got), tc.implied, len(want))
			}
		})
	}
}

// TestCompressedStoredTrace pins the serve half of the compressed-segment
// lane: a flate-encoded stored trace must analyse byte-identically to
// a local sweep over the same bytes, repeated analyses must hit the
// arena cache (decoded segments are cached post-inflate, so the
// inflate cost is paid once), and a capture session created with
// Compress must actually store compressed segments that lint clean.
func TestCompressedStoredTrace(t *testing.T) {
	ts, _ := testServer(t, Options{Budget: 400_000, SegmentBytes: 16 << 10})
	c := NewClient(ts.URL, "alpha")

	recs := makeRecords(30_000)
	data := makeSegmentedTraceEnc(t, recs, 5000, trace.SegEncFlate)
	f, err := trace.OpenReaderAt(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	nseg := len(f.Segments())
	compressed := 0
	for _, s := range f.Segments() {
		if s.Encoding == trace.SegEncFlate {
			compressed++
		}
	}
	if compressed == 0 {
		t.Fatal("test trace has no compressed segments")
	}
	if _, err := c.UploadTrace("comp", data); err != nil {
		t.Fatal(err)
	}

	cfgs := []cache.Config{
		{Label: "a", SizeBytes: 1 << 10, BlockBytes: 16, Assoc: 1, Replacement: cache.LRU, WriteAllocate: true, PIDTags: true},
	}
	run := cache.RunOptions{IncludePTE: true}
	arena, err := f.Arena(0)
	if err != nil {
		t.Fatal(err)
	}
	local, err := sweep.Caches(arena, cfgs, run, 0)
	if err != nil {
		t.Fatal(err)
	}

	hits0, _ := obs.Default().PeekCounter("atum_serve_arena_cache_hits_total")
	miss0, _ := obs.Default().PeekCounter("atum_serve_arena_cache_misses_total")
	for i := 0; i < 2; i++ {
		resp, err := c.Analyze(api.AnalysisRequest{Trace: "comp", Kind: api.KindCaches, Caches: cfgs, Run: run})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(resp.Caches, local) {
			t.Fatalf("analysis %d over compressed trace differs from local sweep", i)
		}
	}
	hits1, _ := obs.Default().PeekCounter("atum_serve_arena_cache_hits_total")
	miss1, _ := obs.Default().PeekCounter("atum_serve_arena_cache_misses_total")
	if miss1-miss0 < uint64(nseg) {
		t.Errorf("first analysis missed %d times, want >= %d (one per segment)", miss1-miss0, nseg)
	}
	if hits1-hits0 < uint64(nseg) {
		t.Errorf("second analysis hit %d times, want >= %d (one per segment)", hits1-hits0, nseg)
	}
	if miss1-miss0 >= 2*uint64(nseg) {
		t.Errorf("repeat analysis re-missed (%d total misses for %d segments): encoding key churned", miss1-miss0, nseg)
	}

	// A capture session with Compress set stores compressed segments.
	if _, err := c.CreateSession(api.CreateSessionRequest{Name: "capc", Workloads: []string{"sieve"}, Compress: true}); err != nil {
		t.Fatal(err)
	}
	info := waitDone(t, c, "capc")
	if info.State != api.SessionDone {
		t.Fatalf("compressed capture ended %q: %s", info.State, info.Error)
	}
	stored, err := c.TraceData("capc")
	if err != nil {
		t.Fatal(err)
	}
	sf, err := trace.OpenReaderAt(bytes.NewReader(stored), int64(len(stored)))
	if err != nil {
		t.Fatalf("stored compressed capture unreadable: %v", err)
	}
	var storedPay, storedRaw uint64
	capComp := 0
	for _, s := range sf.Segments() {
		storedPay += s.PayloadBytes
		storedRaw += s.RawBytes
		if s.Encoding == trace.SegEncFlate {
			capComp++
		}
	}
	if capComp == 0 {
		t.Fatalf("Compress session stored no compressed segments (%d segments)", len(sf.Segments()))
	}
	if storedPay >= storedRaw {
		t.Errorf("compressed capture stored %d bytes for %d raw", storedPay, storedRaw)
	}
	if got, err := sf.Records(0); err != nil || uint64(len(got)) != info.Spilled {
		t.Fatalf("stored compressed capture decode: %d records, err %v, want %d", len(got), err, info.Spilled)
	}
	// The lint endpoint runs the container checks over it without
	// complaint (a well-formed writer never trips seg-raw-len).
	lr, err := c.Lint("capc")
	if err != nil {
		t.Fatal(err)
	}
	for _, fd := range lr.Findings {
		if fd.Check == trace.LintSegRawLen {
			t.Fatalf("well-formed compressed capture flagged by container lint: %+v", fd)
		}
	}
	// And the tenant registry accounted the compressed stored bytes.
	mt, err := c.MetricsText()
	if err != nil {
		t.Fatal(err)
	}
	var compBytes uint64
	for _, line := range strings.Split(mt, "\n") {
		if n, _ := fmt.Sscanf(line, "atum_spill_compressed_bytes_total %d", &compBytes); n == 1 {
			break
		}
	}
	if compBytes == 0 {
		t.Error("atum_spill_compressed_bytes_total never moved on a compressed capture")
	}
}
