// atum-experiments regenerates the paper-reproduction tables and figures
// indexed in DESIGN.md (the data recorded in EXPERIMENTS.md).
//
// Usage:
//
//	atum-experiments            # run everything
//	atum-experiments t1 f1 f5   # run selected experiments
//	atum-experiments -list
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"atum/internal/cliutil"
	"atum/internal/experiments"
)

func main() {
	list := flag.Bool("list", false, "list experiment ids and exit")
	md := flag.Bool("md", false, "render tables as markdown")
	csv := flag.Bool("csv", false, "render tables as CSV")
	var common cliutil.CommonOptions
	common.AddFlags(flag.CommandLine,
		cliutil.FlagWorkers|cliutil.FlagDecodeWorkers|cliutil.FlagMetrics|cliutil.FlagRemote)
	flag.Parse()
	if err := common.Validate(); err != nil {
		cliutil.Exit2("atum-experiments", err)
	}
	workers, decodeW := &common.Workers, &common.DecodeWorkers
	metrics := &common.Metrics
	if err := metrics.Start(os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "atum-experiments:", err)
		os.Exit(1)
	}
	defer metrics.Finish(os.Stdout)

	registry := experiments.All()
	if *list {
		for _, e := range registry {
			fmt.Println(e.ID)
		}
		return
	}

	want := map[string]bool{}
	for _, a := range flag.Args() {
		want[strings.ToLower(a)] = true
	}

	ran := 0
	for _, e := range registry {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		rep, err := e.Run(experiments.Options{
			Workers: *workers, DecodeWorkers: *decodeW, Remote: common.Remote,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "atum-experiments: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		switch {
		case *md:
			fmt.Printf("## %s: %s\n\n", rep.ID, rep.Title)
			for _, t := range rep.Tables {
				fmt.Println(t.Markdown())
			}
			for _, n := range rep.Notes {
				fmt.Println("> " + n)
			}
			fmt.Println()
		case *csv:
			for _, t := range rep.Tables {
				fmt.Printf("# %s: %s\n%s\n", rep.ID, t.Title, t.CSV())
			}
		default:
			fmt.Println(rep)
		}
		ran++
	}
	if ran == 0 {
		fmt.Fprintln(os.Stderr, "atum-experiments: no matching experiments (use -list)")
		os.Exit(2)
	}
}
