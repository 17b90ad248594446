package experiments

import (
	"fmt"
	"strings"
	"testing"

	"atum/internal/trace"
	"atum/internal/workload"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"t1", "t2", "f1", "f2", "f3", "f4", "f5", "f6", "f7", "f8", "f9", "t3", "a1", "a2", "a3", "a4", "a5", "a6", "m1", "m2", "m3"}
	got := All()
	if len(got) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(got), len(want))
	}
	for i, e := range got {
		if e.ID != want[i] {
			t.Errorf("registry[%d] = %s, want %s", i, e.ID, want[i])
		}
		if e.Run == nil {
			t.Errorf("%s has nil runner", e.ID)
		}
	}
}

// TestAllExperimentsRun executes the complete suite — it is fast (the
// standard-mix capture is memoized) and guards every table and figure
// against regressions in any layer below.
func TestAllExperimentsRun(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			rep, err := e.Run(Options{})
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if rep.ID == "" || rep.Title == "" {
				t.Error("report missing identity")
			}
			if len(rep.Tables) == 0 {
				t.Fatal("report has no tables")
			}
			for _, tb := range rep.Tables {
				if len(tb.Rows) == 0 {
					t.Errorf("table %q is empty", tb.Title)
				}
				for _, row := range tb.Rows {
					if len(row) != len(tb.Headers) {
						t.Errorf("table %q: row width %d != header width %d",
							tb.Title, len(row), len(tb.Headers))
					}
				}
			}
			if s := rep.String(); len(s) < 100 {
				t.Errorf("report renders suspiciously short: %q", s)
			}
		})
	}
}

func TestCaptureMixProducesCompleteTrace(t *testing.T) {
	recs, err := captureMix(sysConfig(), "sieve")
	if err != nil {
		t.Fatal(err)
	}
	s := trace.Summarize(recs)
	if s.SystemRefs == 0 || s.UserRefs == 0 || s.CtxSwitches == 0 {
		t.Errorf("incomplete capture: %+v", s)
	}
}

func TestStandardMixTraceMemoized(t *testing.T) {
	a, err := standardMixTrace()
	if err != nil {
		t.Fatal(err)
	}
	b, err := standardMixTrace()
	if err != nil {
		t.Fatal(err)
	}
	if &a[0] != &b[0] {
		t.Error("standard mix trace not memoized")
	}
}

// TestF1Shape verifies the headline result end to end: in the size band
// where the kernel working set rivals the cache (512B-4KB — the size
// class of the paper's machines scaled to our miniature workloads),
// full-system miss rates exceed user-only, and the peak understatement
// is large.
func TestF1Shape(t *testing.T) {
	r, err := F1OSImpact(Options{})
	if err != nil {
		t.Fatal(err)
	}
	tb := r.Tables[0]
	if len(tb.Rows) < 5 {
		t.Fatalf("too few rows: %d", len(tb.Rows))
	}
	band := map[string]bool{"512B": true, "1KB": true, "2KB": true, "4KB": true}
	maxRatio := 0.0
	for _, row := range tb.Rows {
		if !band[row[0]] {
			continue
		}
		u := parsePct(t, row[1])
		f := parsePct(t, row[2])
		if f <= u {
			t.Errorf("size %s: full %.3f%% <= user %.3f%%", row[0], f, u)
		}
		if u > 0 && f/u > maxRatio {
			maxRatio = f / u
		}
	}
	if maxRatio < 1.5 {
		t.Errorf("peak OS-impact ratio %.2f, want >= 1.5", maxRatio)
	}
}

// TestA2Shape verifies the delta codec compresses the real mix trace.
func TestA2Shape(t *testing.T) {
	r, err := A2Codec(Options{})
	if err != nil {
		t.Fatal(err)
	}
	rows := r.Tables[0].Rows
	if len(rows) != 2 {
		t.Fatal("want raw+delta rows")
	}
	if !strings.HasPrefix(rows[1][0], "delta") {
		t.Fatal("row order")
	}
	var ratio float64
	if _, err := sscan(rows[1][3], &ratio); err != nil {
		t.Fatal(err)
	}
	if ratio < 2 {
		t.Errorf("delta ratio %.2f, want >= 2 on real traces", ratio)
	}
}

// TestF6Shape verifies the working-set dominance property.
func TestF6Shape(t *testing.T) {
	r, err := F6WorkingSet(Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Tables[0].Rows {
		var u, f float64
		if _, err := sscan(row[1], &u); err != nil {
			t.Fatal(err)
		}
		if _, err := sscan(row[2], &f); err != nil {
			t.Fatal(err)
		}
		if f <= u {
			t.Errorf("tau %s: full W %.1f <= user W %.1f", row[0], f, u)
		}
	}
}

// TestA5Fidelity pins the trace-driven-validity result: walk-aware
// replay must match the hardware TB within a few percent, while naive
// replay understates substantially.
func TestA5Fidelity(t *testing.T) {
	r, err := A5TraceDrivenFidelity(Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Tables[0].Rows {
		naive := parsePct(t, row[3])
		aware := parsePct(t, row[5])
		if naive > -10 {
			t.Errorf("%s: naive replay delta %.1f%%, expected substantial undercount", row[0], naive)
		}
		if aware < -5 || aware > 5 {
			t.Errorf("%s: walk-aware replay delta %.1f%%, want within ±5%%", row[0], aware)
		}
	}
}

func TestReportString(t *testing.T) {
	r, err := A2Codec(Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := r.String()
	if !strings.Contains(s, "== A2:") || !strings.Contains(s, "codec") {
		t.Errorf("report render:\n%s", s)
	}
}

func TestWorkloadNamesStable(t *testing.T) {
	// T2 depends on the full workload suite; pin its composition.
	if len(workload.All) < 8 {
		t.Errorf("workload suite shrank: %d", len(workload.All))
	}
}

func parsePct(t *testing.T, s string) float64 {
	t.Helper()
	var v float64
	if _, err := sscan(strings.TrimSuffix(s, "%"), &v); err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

func sscan(s string, v *float64) (int, error) {
	return fmt.Sscan(s, v)
}
