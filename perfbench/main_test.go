package main

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"strings"
	"testing"
)

// runOnce runs a workload for a fixed number of ops and returns its
// result line.
func runOnce(t *testing.T, workload string, trace bool, ops int, hook func(*bench)) result {
	t.Helper()
	var out bytes.Buffer
	o := options{workload: workload, seed: 1, trace: trace, ops: ops, out: t.TempDir()}
	if err := run(o, &out, hook); err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line %q: %v", workload, lines[len(lines)-1], err)
	}
	return res
}

// TestShortRunPrintsEveryMetric runs one op of every workload (two in the
// span run, one with spans and one without) and checks that the result
// names exactly the metrics BENCHMARK.json declares, each with its unit.
func TestShortRunPrintsEveryMetric(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	e2e, layer := make(map[string]string), make(map[string]string)
	for _, m := range sp.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range sp.PerLayer {
		layer[m.Name] = m.Unit
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			want, ops := e2e, 1
			if trace {
				want, ops = layer, 2
			}
			res := runOnce(t, w.name, trace, ops, nil)
			if !res.Correct || res.Failed != 0 || res.Attempted != ops {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", w.name, trace, res.Correct, res.Failed, res.Attempted)
			}
			for name, unit := range want {
				if m, ok := res.Metrics[name]; !ok || m.Unit != unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", w.name, trace, name, m, unit)
				}
			}
			for name := range res.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace=%v: metric %s is not declared in BENCHMARK.json", w.name, trace, name)
				}
			}
			if trace && res.Metrics["spans.coverage_frac"].Value < 0.9 {
				t.Errorf("%s: spans cover %.3f of the op", w.name, res.Metrics["spans.coverage_frac"].Value)
			}
		}
	}
}

// TestCorruptStreamFailsOp cuts the end off every captured stream: the op
// must count as failed, not crash or pass.
func TestCorruptStreamFailsOp(t *testing.T) {
	cut := func(b *bench) {
		b.corrupt = func(data []byte) []byte { return data[:len(data)-64] }
	}
	for _, w := range []string{"capture-mix13", "smp2-stream"} {
		res := runOnce(t, w, false, 1, cut)
		if res.Correct || res.Failed != 1 || res.Metrics["ok_op_frac"].Value != 0 {
			t.Errorf("%s: corrupted stream gave correct=%v failed=%d ok_op_frac=%v",
				w, res.Correct, res.Failed, res.Metrics["ok_op_frac"].Value)
		}
	}
}

// TestSeedsKeepWorkSimilar checks that the seed only reorders the mix:
// two seeds record within 10% of the same number of trace records.
func TestSeedsKeepWorkSimilar(t *testing.T) {
	for _, w := range []workloadDef{workloads[0], workloads[2]} {
		var recs []float64
		for _, seed := range []int64{1, 2} {
			b := newBench(seed, t.TempDir())
			var st opStats
			if err := w.op(b, &st); err != nil {
				t.Fatalf("%s seed %d: %v", w.name, seed, err)
			}
			recs = append(recs, float64(st.captured))
		}
		if d := math.Abs(recs[0]-recs[1]) / recs[0]; d > 0.10 {
			t.Errorf("%s: seeds record %v records, %.1f%% apart", w.name, recs, 100*d)
		}
	}
}

// TestReferenceRepeats checks that the reference computation does the same
// work on every call: it starts from a cleared table, so two calls return
// the same value.
func TestReferenceRepeats(t *testing.T) {
	if a, b := refWork(), refWork(); a != b {
		t.Errorf("refWork returned %d, then %d", a, b)
	}
}

func TestQuietKeepsFastHalf(t *testing.T) {
	got := quiet([]float64{1, 2, 3, 4, 5}, []float64{0.1, 0.5, 0.2, 0.4, 0.3})
	if want := []float64{1, 3, 5}; !slices.Equal(got, want) {
		t.Errorf("quiet = %v, want %v", got, want)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestTailLeavesTenOpsBeyond(t *testing.T) {
	var walls []float64
	for i := 1; i <= 40; i++ {
		walls = append(walls, float64(i))
	}
	if pct, v := tail(walls); pct != 75 || v != 30 {
		t.Errorf("tail = p%v %v, want p75 30", pct, v)
	}
}

func TestVerdict(t *testing.T) {
	parent := []float64{1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00}
	faster := []float64{0.80, 0.81, 0.79, 0.80, 0.82, 0.80, 0.81, 0.79, 0.80, 0.80}
	for _, c := range []struct {
		change []float64
		want   string
	}{
		{faster, "win"},
		{parent, "no worse"},
		{[]float64{1.3, 1.3, 1.31, 1.29, 1.3, 1.3, 1.3, 1.3, 1.3, 1.3}, "worse"},
		{[]float64{0.5, 1.5, 0.6, 1.4, 0.5, 1.5, 0.6, 1.4, 1.0, 1.0}, "unresolved"},
	} {
		if got, _ := verdict(parent, c.change, false, 0.1); got != c.want {
			t.Errorf("verdict(%v) = %s, want %s", c.change, got, c.want)
		}
	}
}
