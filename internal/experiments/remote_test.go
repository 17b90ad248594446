package experiments

import (
	"net/http/httptest"
	"reflect"
	"testing"

	"atum/internal/cache"
	"atum/internal/serve"
	"atum/internal/tlbsim"
	"atum/internal/trace"
)

// TestRemoteOptionIdenticalReports pins the -remote contract: routing
// the experiment sweeps through an atum-serve daemon returns the exact
// result structs a local run produces, for every sweep family.
func TestRemoteOptionIdenticalReports(t *testing.T) {
	ts := httptest.NewServer(serve.NewServer(serve.Options{}))
	defer ts.Close()

	recs := make([]trace.Record, 0, 20_000)
	pid := uint8(1)
	for i := 0; len(recs) < cap(recs); i++ {
		if i%311 == 0 {
			pid = 1 + pid%2
			recs = append(recs, trace.Record{Kind: trace.KindCtxSwitch, PID: pid, Extra: uint16(pid)})
			continue
		}
		r := trace.Record{Kind: trace.KindIFetch, Addr: uint32(0x2000 + (i%777)*4), Width: 4, User: true, PID: pid}
		if i%3 == 0 {
			r.Kind, r.Addr = trace.KindDRead, uint32(0x60000+(i%211)*8)
		}
		recs = append(recs, r)
	}
	src := trace.Records(recs)

	ccfgs := []cache.Config{
		{SizeBytes: 1 << 10, BlockBytes: 16, Assoc: 1, Replacement: cache.LRU, WriteAllocate: true, PIDTags: true},
		{SizeBytes: 4 << 10, BlockBytes: 16, Assoc: 2, Replacement: cache.LRU, WriteAllocate: true, PIDTags: true},
	}
	hcfgs := []cache.HierarchyConfig{{L1: ccfgs[0], L2: ccfgs[1]}}
	tcfgs := []tlbsim.Config{{Entries: 16, Assoc: 2, PIDTags: true, IncludeSystem: true}}
	run := cache.RunOptions{IncludePTE: true}

	local := Options{}
	wantC, err := local.sweepCaches(src, ccfgs, run)
	if err != nil {
		t.Fatal(err)
	}
	wantH, err := local.sweepHierarchies(src, hcfgs, run)
	if err != nil {
		t.Fatal(err)
	}
	wantT, err := local.sweepTBs(src, tcfgs)
	if err != nil {
		t.Fatal(err)
	}

	remote := Options{Remote: ts.URL}
	gotC, err := remote.sweepCaches(src, ccfgs, run)
	if err != nil {
		t.Fatalf("remote caches: %v", err)
	}
	if !reflect.DeepEqual(gotC, wantC) {
		t.Error("remote cache sweep differs from local")
	}
	gotH, err := remote.sweepHierarchies(src, hcfgs, run)
	if err != nil {
		t.Fatalf("remote hierarchies: %v", err)
	}
	if !reflect.DeepEqual(gotH, wantH) {
		t.Error("remote hierarchy sweep differs from local")
	}
	gotT, err := remote.sweepTBs(src, tcfgs)
	if err != nil {
		t.Fatalf("remote TBs: %v", err)
	}
	if !reflect.DeepEqual(gotT, wantT) {
		t.Error("remote TB sweep differs from local")
	}
}
