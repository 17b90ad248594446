package main

import (
	"crypto/sha256"
	"fmt"
	"os"

	"atum/internal/cache"
	"atum/internal/serve"
	"atum/internal/serve/api"
	"atum/internal/stackdist"
	"atum/internal/tlbsim"
)

// remoteTenant is the namespace cachesim's -remote uploads land in.
const remoteTenant = "cli"

// remoteFlags carries the already-parsed simulation flags to the remote
// dispatcher.
type remoteFlags struct {
	size     string
	block    uint32
	assoc    uint32
	repl     string
	flush    bool
	userOnly bool
	pte      bool
	sweepArg string
	sizesArg string
	tlb      bool
	entries  uint32
	mattson  bool
	l2       string
	cpu      int

	workers       int
	decodeWorkers int
	sampleSets    uint32
}

// remoteRun executes the requested simulation on an atum-serve daemon:
// the local trace is uploaded once under its content hash (re-running
// against the same daemon re-uses the stored copy and its decoded-arena
// cache), the daemon runs exactly the sweep the local path would, and
// the result renders through the same print functions — so a remote
// report is byte-for-byte the local report.
func remoteRun(addr, path string, f remoteFlags) {
	c, traceName := uploadByHash(addr, path)
	req := api.AnalysisRequest{
		Trace:         traceName,
		UserOnly:      f.userOnly,
		Workers:       f.workers,
		DecodeWorkers: f.decodeWorkers,
	}
	if f.cpu >= 0 {
		req.CPU = &f.cpu
	}

	switch {
	case f.mattson:
		req.Kind = api.KindStackdist
		req.Stackdist = &stackdist.Options{BlockBytes: f.block, PIDTag: !f.flush, IncludePTE: f.pte}
		resp, err := c.Analyze(req)
		if err != nil {
			fatal(err)
		}
		printMattson(resp.Stackdist, f.block)

	case f.tlb:
		cfg := tlbsim.Config{
			Entries: f.entries, Assoc: 2, SplitSystem: true,
			PIDTags: !f.flush, FlushOnSwitch: f.flush, IncludeSystem: true,
		}
		req.Kind = api.KindTBs
		req.TBs = []tlbsim.Config{cfg}
		resp, err := c.Analyze(req)
		if err != nil {
			fatal(err)
		}
		printTB(cfg, resp.TBs[0])

	case f.l2 != "":
		cfg := baseCacheConfig(f.size, f.block, f.assoc, f.repl, f.flush)
		l2cfg := cfg
		l2cfg.SizeBytes = parseSize(f.l2)
		l2cfg.Assoc = 4
		req.Kind = api.KindHierarchies
		req.Hierarchies = []cache.HierarchyConfig{{L1: cfg, L2: l2cfg}}
		req.Run.IncludePTE = f.pte
		req.Run.SampleSets = f.sampleSets
		resp, err := c.Analyze(req)
		if err != nil {
			fatal(err)
		}
		printHierarchy(resp.Hierarchies[0])

	default:
		cfg := baseCacheConfig(f.size, f.block, f.assoc, f.repl, f.flush)
		req.Kind = api.KindCaches
		req.Caches = sweepConfigs(cfg, f.sweepArg, f.sizesArg)
		req.Run.IncludePTE = f.pte
		req.Run.SampleSets = f.sampleSets
		resp, err := c.Analyze(req)
		if err != nil {
			fatal(err)
		}
		report(resp.Caches)
	}
}

// uploadByHash stores the local trace on the daemon under a name
// derived from its content hash, skipping the upload when the daemon
// already holds identical bytes.
func uploadByHash(addr, path string) (*serve.Client, string) {
	data, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	sum := sha256.Sum256(data)
	name := fmt.Sprintf("t%x", sum[:8])
	c := serve.NewClient(addr, remoteTenant)
	if info, err := c.Trace(name); err == nil && info.Complete && info.Bytes == uint64(len(data)) {
		return c, name // same content hash, same bytes: already stored
	}
	if _, err := c.UploadTrace(name, data); err != nil {
		fatal(err)
	}
	return c, name
}
