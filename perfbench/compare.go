package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// spec is the part of BENCHMARK.json the comparison reads: each
// end-to-end metric's direction and regression bound.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadSpec(path string) (spec, error) {
	var s spec
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// loadRecords reads every run record in dir, in file-name order.
func loadRecords(dir string) ([]runRecord, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	var recs []runRecord
	for _, p := range paths {
		if strings.HasSuffix(p, "-spans.json") {
			continue
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r runRecord
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		recs = append(recs, r)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("%s: no run records", dir)
	}
	return recs, nil
}

// compareMain prints, for every workload, each end-to-end metric's
// median and quartiles on both sides and a verdict under the metric's
// bound, then the span runs' self time per layer.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	fl.SetOutput(stderr)
	specPath := fl.String("spec", "BENCHMARK.json", "benchmark definition holding the metrics' bounds")
	if err := fl.Parse(args); err != nil || fl.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare [-spec BENCHMARK.json] <parent-results-dir> <change-results-dir>")
		return 2
	}
	sp, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench compare:", err)
		return 1
	}
	parent, err := loadRecords(fl.Arg(0))
	if err == nil {
		var change []runRecord
		if change, err = loadRecords(fl.Arg(1)); err == nil {
			compare(stdout, sp, parent, change)
			return 0
		}
	}
	fmt.Fprintln(stderr, "perfbench compare:", err)
	return 1
}

func compare(w io.Writer, sp spec, parent, change []runRecord) {
	for _, wl := range workloadNames() {
		p, c := selectRuns(parent, wl, false), selectRuns(change, wl, false)
		if len(p) > 0 && len(c) > 0 {
			fmt.Fprintf(w, "== %s: parent %d runs, change %d runs\n", wl, len(p), len(c))
			fmt.Fprintf(w, "  %-20s %-9s %5s  %-30s %-30s %8s  %s\n", "metric", "unit", "bound", "parent p50 [q1, q3]", "change p50 [q1, q3]", "delta", "verdict")
			for _, m := range sp.EndToEnd {
				pv, cv := metricValues(p, m.Name), metricValues(c, m.Name)
				if len(pv) == 0 || len(cv) == 0 {
					continue
				}
				v, delta := verdict(pv, cv, m.Better == "higher", m.Bound)
				fmt.Fprintf(w, "  %-20s %-9s %5.2f  %-30s %-30s %+7.1f%%  %s\n", m.Name, m.Unit, m.Bound, quartileText(pv), quartileText(cv), 100*delta, v)
			}
		}
		p, c = selectRuns(parent, wl, true), selectRuns(change, wl, true)
		if len(p) == 0 || len(c) == 0 {
			continue
		}
		fmt.Fprintf(w, "== %s span runs: self time per op by layer (median over runs)\n", wl)
		pl, cl := layerSelf(p), layerSelf(c)
		for _, layer := range sortedKeys(pl) {
			fmt.Fprintf(w, "  %-10s parent %10.6f s  change %10.6f s\n", layer, median(pl[layer]), median(cl[layer]))
		}
		fmt.Fprintf(w, "  span overhead    parent %+6.1f%%  change %+6.1f%% (span ops vs plain ops of the same run)\n",
			100*median(metricValues(p, "spans.overhead_frac")), 100*median(metricValues(c, "spans.overhead_frac")))
	}
}

func selectRuns(recs []runRecord, workload string, trace bool) []runRecord {
	var out []runRecord
	for _, r := range recs {
		if r.Workload == workload && r.Trace == trace {
			out = append(out, r)
		}
	}
	return out
}

func metricValues(recs []runRecord, name string) []float64 {
	var v []float64
	for _, r := range recs {
		if m, ok := r.Result.Metrics[name]; ok {
			v = append(v, m.Value)
		}
	}
	return v
}

// layerSelf sums each run's median self times by layer.
func layerSelf(recs []runRecord) map[string][]float64 {
	out := make(map[string][]float64)
	for _, r := range recs {
		sum := make(map[string]float64)
		for name, s := range r.SelfTime {
			sum[layerOf[name]] += s
		}
		for layer, s := range sum {
			out[layer] = append(out[layer], s)
		}
	}
	return out
}

// verdict judges the change against the parent (choosing-metrics §8).
// delta is the change's median gain over the parent's, as a share of the
// parent's (positive is better). A win needs ten or more pairs, the change
// ahead in nine tenths of them, and a median gap wider than the parent's
// quartile spread. Where either side's spread exceeds the bound the
// result is unresolved, unless every change run beats every parent run.
func verdict(parent, change []float64, higherBetter bool, bound float64) (string, float64) {
	sign := -1.0
	if higherBetter {
		sign = 1
	}
	pm, cm := median(parent), median(change)
	delta := 0.0
	if pm != 0 {
		delta = sign * (cm - pm) / math.Abs(pm)
	}
	pairs, wins := min(len(parent), len(change)), 0
	for i := 0; i < pairs; i++ {
		if sign*(change[i]-parent[i]) > 0 {
			wins++
		}
	}
	pq1, _, pq3 := quartiles(parent)
	cq1, _, cq3 := quartiles(change)
	switch {
	case pairs >= 10 && float64(wins) >= 0.9*float64(pairs) && math.Abs(cm-pm) > pq3-pq1 && delta > 0:
		return "win", delta
	case relSpread(pq1, pq3, pm) > bound || relSpread(cq1, cq3, cm) > bound:
		if allBetter(parent, change, sign) {
			return "no worse", delta
		}
		return "unresolved", delta
	case delta >= -bound:
		return "no worse", delta
	}
	return "worse", delta
}

func relSpread(q1, q3, m float64) float64 {
	if m == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(m)
}

func allBetter(parent, change []float64, sign float64) bool {
	for _, c := range change {
		for _, p := range parent {
			if sign*(c-p) <= 0 {
				return false
			}
		}
	}
	return true
}

// quartiles follows Python's statistics.quantiles(xs, n=4), the default
// exclusive method.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	ld := len(s)
	if ld < 2 {
		v := median(s)
		return v, v, v
	}
	q := make([]float64, 3)
	m := ld + 1
	for i := 1; i < 4; i++ {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

func quartileText(xs []float64) string {
	q1, q2, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", q2, q1, q3)
}
