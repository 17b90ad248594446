package analysis

import (
	"strings"
	"testing"

	"atum/internal/trace"
)

func ref(addr uint32, pid uint8) trace.Word {
	return trace.Pack(trace.KindDRead, addr, 4, pid, true, false, 0)
}

func TestWorkingSetSinglePage(t *testing.T) {
	// One page referenced throughout: W(tau) == 1 for all tau >= 1.
	var recs []trace.Word
	for i := 0; i < 100; i++ {
		recs = append(recs, ref(0x1000+uint32(i%10)*4, 1))
	}
	ws := WorkingSet(recs, []uint32{1, 10, 100})
	for i, w := range ws {
		if w < 0.99 || w > 1.01 {
			t.Errorf("W(tau[%d]) = %f, want 1", i, w)
		}
	}
}

func TestWorkingSetMonotoneInTau(t *testing.T) {
	// Round-robin over 8 pages: W grows with tau up to 8.
	var recs []trace.Word
	for i := 0; i < 800; i++ {
		recs = append(recs, ref(uint32(i%8)<<9, 1))
	}
	taus := []uint32{1, 2, 4, 8, 16, 64}
	ws := WorkingSet(recs, taus)
	for i := 1; i < len(ws); i++ {
		if ws[i] < ws[i-1]-1e-9 {
			t.Errorf("W not monotone: W(%d)=%f < W(%d)=%f", taus[i], ws[i], taus[i-1], ws[i-1])
		}
	}
	if ws[0] < 0.9 || ws[0] > 1.1 {
		t.Errorf("W(1) = %f, want ~1", ws[0])
	}
	last := ws[len(ws)-1]
	if last < 7.0 || last > 8.01 {
		t.Errorf("W(64) = %f, want ~8", last)
	}
}

func TestWorkingSetSeparatesAddressSpaces(t *testing.T) {
	// Two processes touching the same VA are distinct pages.
	var recs []trace.Word
	for i := 0; i < 100; i++ {
		recs = append(recs, ref(0x1000, uint8(1+i%2)))
	}
	ws := WorkingSet(recs, []uint32{50})
	if ws[0] < 1.8 {
		t.Errorf("W = %f, want ~2 (per-PID pages)", ws[0])
	}
}

func TestWorkingSetEmpty(t *testing.T) {
	ws := WorkingSet(nil, []uint32{10})
	if ws[0] != 0 {
		t.Errorf("empty trace W = %f", ws[0])
	}
}

func TestRunLengths(t *testing.T) {
	recs := []trace.Word{
		ref(0x1000, 1), ref(0x1004, 1),
		trace.Pack(trace.KindCtxSwitch, 0, 0, 0, false, false, 2),
		ref(0x1000, 2), ref(0x1004, 2), ref(0x1008, 2),
		trace.Pack(trace.KindCtxSwitch, 0, 0, 0, false, false, 1),
		ref(0x100C, 1),
	}
	runs := RunLengths(recs)
	want := []uint64{2, 3, 1}
	if len(runs) != len(want) {
		t.Fatalf("runs = %v", runs)
	}
	for i := range want {
		if runs[i] != want[i] {
			t.Errorf("run %d = %d, want %d", i, runs[i], want[i])
		}
	}
	if m := MeanU64(runs); m != 2 {
		t.Errorf("mean = %f", m)
	}
	if MeanU64(nil) != 0 {
		t.Error("mean of empty should be 0")
	}
}

func TestPerPID(t *testing.T) {
	recs := []trace.Word{
		ref(0x1000, 1),
		ref(0x1000, 1),
		trace.Pack(trace.KindDRead, 0x80000000, 4, 1, false, false, 0),
		ref(0x2000, 2),
		trace.Pack(trace.KindCtxSwitch, 0, 0, 2, false, false, 0),
	}
	tb := PerPID(recs)
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(tb.Rows))
	}
	// pid 1: 3 refs (2 user 1 system), 2 distinct pages.
	if tb.Rows[0][0] != "1" || tb.Rows[0][1] != "3" || tb.Rows[0][3] != "1" || tb.Rows[0][5] != "2" {
		t.Errorf("pid1 row: %v", tb.Rows[0])
	}
	if tb.Rows[1][0] != "2" || tb.Rows[1][1] != "1" {
		t.Errorf("pid2 row: %v", tb.Rows[1])
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{
		Title:   "F1: example",
		Headers: []string{"size", "miss rate"},
	}
	tb.AddRow("1KB", Pct(0.25))
	tb.AddRow("64KB", Pct(0.0123))
	s := tb.String()
	if !strings.Contains(s, "F1: example") || !strings.Contains(s, "25.00%") {
		t.Errorf("table:\n%s", s)
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 5 { // title, headers, sep, 2 rows
		t.Errorf("line count %d:\n%s", len(lines), s)
	}
	csv := tb.CSV()
	if !strings.HasPrefix(csv, "size,miss rate\n") {
		t.Errorf("csv:\n%s", csv)
	}
	md := tb.Markdown()
	if !strings.Contains(md, "| size | miss rate |") || !strings.Contains(md, "|---|---|") {
		t.Errorf("markdown:\n%s", md)
	}
	if !strings.Contains(md, "| 1KB | 25.00% |") {
		t.Errorf("markdown rows:\n%s", md)
	}
	if !strings.Contains(tb.Markdown(), "**F1: example**") {
		t.Errorf("markdown title:\n%s", md)
	}
	if F(1.234567, 2) != "1.23" || N(42) != "42" {
		t.Error("formatters broken")
	}
}
