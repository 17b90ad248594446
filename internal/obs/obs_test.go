package obs

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
)

// TestHistogramBucketBoundaries pins the bucket edge convention: bounds
// are inclusive upper edges, values above the last bound land in +Inf.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0, 1, 1.0000001, 10, 99.9, 100, 101, 1e9} {
		h.Observe(v)
	}
	bounds, cum := h.Buckets()
	if len(bounds) != 3 || len(cum) != 4 {
		t.Fatalf("bounds=%v cum=%v", bounds, cum)
	}
	// <=1: {0, 1}; <=10: +{1.0000001, 10}; <=100: +{99.9, 100}; +Inf: +{101, 1e9}.
	want := []uint64{2, 4, 6, 8}
	for i, w := range want {
		if cum[i] != w {
			t.Errorf("cumulative[%d] = %d, want %d (cum=%v)", i, cum[i], w, cum)
		}
	}
	if h.Count() != 8 {
		t.Errorf("Count = %d, want 8", h.Count())
	}
	if got, want := h.Sum(), 0.0+1+1.0000001+10+99.9+100+101+1e9; math.Abs(got-want) > 1e-6 {
		t.Errorf("Sum = %v, want %v", got, want)
	}
}

func TestHistogramRejectsUnsortedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unsorted bounds accepted")
		}
	}()
	NewHistogram([]float64{1, 1})
}

// TestConcurrentTotals is the determinism contract: N goroutines each
// incrementing M times must always total exactly N*M — no lost updates
// on counters, gauges, or histogram counts/sums.
func TestConcurrentTotals(t *testing.T) {
	const goroutines, per = 16, 10_000
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", []float64{0.5, 1.5})
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				c.Inc()
				g.Add(1)
				h.Observe(1)
			}
		}()
	}
	wg.Wait()
	const want = goroutines * per
	if c.Value() != want {
		t.Errorf("counter = %d, want %d", c.Value(), want)
	}
	if g.Value() != want {
		t.Errorf("gauge = %v, want %d", g.Value(), want)
	}
	if h.Count() != want {
		t.Errorf("histogram count = %d, want %d", h.Count(), want)
	}
	if h.Sum() != want {
		t.Errorf("histogram sum = %v, want %d", h.Sum(), want)
	}
	_, cum := h.Buckets()
	if cum[1] != want || cum[0] != 0 || cum[2] != want {
		t.Errorf("cumulative buckets = %v", cum)
	}
}

// TestRegistryGetOrCreate: two lookups of one name share the metric;
// cross-type reuse of a name panics.
func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	r.Counter("x").Add(3)
	if got := r.Counter("x").Value(); got != 3 {
		t.Fatalf("second lookup lost the count: %d", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("cross-type name reuse accepted")
		}
	}()
	r.Gauge("x")
}

// TestExpositionGolden pins the plain-text format byte for byte: sorted
// names, integer counters, shortest-form floats, cumulative histogram
// buckets with _sum and _count.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("atum_capture_records_total").Add(12345)
	r.Gauge("atum_sweep_replay_rate_recs_per_sec").Set(2.5e6)
	h := r.Histogram("atum_spill_latency_seconds", []float64{0.001, 0.01})
	h.Observe(0.0005)
	h.Observe(0.0005)
	h.Observe(0.02)
	r.Counter("aaa_first").Inc()

	const want = `aaa_first 1
atum_capture_records_total 12345
atum_spill_latency_seconds_bucket{le="0.001"} 2
atum_spill_latency_seconds_bucket{le="0.01"} 2
atum_spill_latency_seconds_bucket{le="+Inf"} 3
atum_spill_latency_seconds_sum 0.021
atum_spill_latency_seconds_count 3
atum_sweep_replay_rate_recs_per_sec 2.5e+06
`
	if got := r.String(); got != want {
		t.Errorf("exposition format drifted:\n got: %q\nwant: %q", got, want)
	}
}

// TestJSONRoundTrip checks the expvar-shaped object form.
func TestJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(7)
	r.Histogram("h", []float64{1}).Observe(0.5)
	var b strings.Builder
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var obj map[string]json.RawMessage
	if err := json.Unmarshal([]byte(b.String()), &obj); err != nil {
		t.Fatalf("not a JSON object: %v\n%s", err, b.String())
	}
	if string(obj["c"]) != "7" {
		t.Errorf("c = %s", obj["c"])
	}
	var hist histogramJSON
	if err := json.Unmarshal(obj["h"], &hist); err != nil {
		t.Fatal(err)
	}
	if hist.Count != 1 || hist.Buckets["1"] != 1 || hist.Buckets["+Inf"] != 1 {
		t.Errorf("histogram JSON = %+v", hist)
	}
}

// TestServe drives the HTTP surface end to end: text at /metrics, JSON
// via content negotiation and at /debug/vars.
func TestServe(t *testing.T) {
	r := NewRegistry()
	r.Counter("served_total").Add(9)
	addr, stop, err := r.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	get := func(path, accept string) (string, string) {
		t.Helper()
		req, _ := http.NewRequest("GET", "http://"+addr+path, nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return string(body), resp.Header.Get("Content-Type")
	}

	if body, ct := get("/metrics", ""); !strings.Contains(body, "served_total 9") || !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics text: ct=%q body=%q", ct, body)
	}
	if body, ct := get("/metrics?format=json", ""); !strings.Contains(body, `"served_total": 9`) || !strings.HasPrefix(ct, "application/json") {
		t.Errorf("/metrics json: ct=%q body=%q", ct, body)
	}
	if body, _ := get("/metrics", "application/json"); !strings.Contains(body, `"served_total": 9`) {
		t.Errorf("accept-negotiated json: %q", body)
	}
	if body, ct := get("/debug/vars", ""); !strings.Contains(body, `"served_total": 9`) || !strings.HasPrefix(ct, "application/json") {
		t.Errorf("/debug/vars: ct=%q body=%q", ct, body)
	}
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/heap?debug=1"} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d, want 200", path, resp.StatusCode)
		}
	}
}
