package main

import (
	"fmt"
	"os"
	"strings"

	"atum/internal/serve"
	"atum/internal/serve/api"
)

// splitRemoteTarget parses the "tenant/trace" form the -remote modes
// use in place of a file path.
func splitRemoteTarget(arg string) (tenant, name string, err error) {
	tenant, name, ok := strings.Cut(arg, "/")
	if !ok || tenant == "" || name == "" {
		return "", "", fmt.Errorf("remote target %q: want tenant/trace", arg)
	}
	return tenant, name, nil
}

// remoteStats answers from a daemon instead of a file: the header
// sections come from the stored trace's segment index (no payload
// decoded, same as -meta-only locally), while the summary and lint run
// on the daemon over its cached arena. Sections that need raw records
// client-side (-dump, -wset, -by-pid, -pid filters) are file-mode only;
// download via the trace data endpoint to use them.
func remoteStats(addr, arg string, check, metaOnly bool) {
	tenant, name, err := splitRemoteTarget(arg)
	if err != nil {
		fatal(err)
	}
	c := serve.NewClient(addr, tenant)
	info, err := c.Trace(name)
	if err != nil {
		fatal(err)
	}
	if info.Meta != "" {
		fmt.Println("capture:", info.Meta)
	}
	var dropped, cycles uint64
	for _, s := range info.Segments {
		dropped += s.Dropped
		cycles += s.DilationCycles
	}
	fmt.Printf("segments: %d (%d records dropped at capture, %d dilation cycles)\n",
		len(info.Segments), dropped, cycles)
	if metaOnly {
		fmt.Printf("records: %d (per stream headers; payloads not decoded)\n", info.Records)
		for _, s := range info.Segments {
			fmt.Printf("  segment %d: %d records, %d bytes, %d dropped, %d dilation cycles\n",
				s.Index, s.Records, s.PayloadBytes, s.Dropped, s.DilationCycles)
		}
		return
	}
	lintFailed := false
	if check {
		lr, err := c.Lint(name)
		if err != nil {
			fatal(err)
		}
		if len(lr.Findings) == 0 {
			fmt.Print("lint: trace is well-formed\n")
		} else {
			lintFailed = true
			for _, f := range lr.Findings {
				fmt.Println("lint:", f.String())
			}
		}
	}
	resp, err := c.Analyze(api.AnalysisRequest{Trace: name, Kind: api.KindSummary})
	if err != nil {
		fatal(err)
	}
	fmt.Print(resp.Summary.String())
	if lintFailed {
		os.Exit(1)
	}
}
