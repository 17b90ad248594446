package trace

import (
	"strings"
	"testing"
)

func TestLintCleanTrace(t *testing.T) {
	recs := []Word{
		Pack(KindIFetch, 0x80000000, 4, 0, false, false, 0),
		Pack(KindCtxSwitch, 0, 0, 1, false, false, 1),
		Pack(KindException, 0, 0, 1, false, false, 0x40),
		Pack(KindIFetch, 0x200, 4, 1, true, false, 0),
		Pack(KindDRead, 0x1000, 4, 1, true, false, 0),
		Pack(KindPTERead, 0x80010000, 4, 1, false, false, 0),
		Pack(KindPTERead, 0x8000, 4, 1, false, true, 0),
		Pack(KindIFetch, 0x80000040, 4, 1, false, false, 0),
	}
	if v := Lint(recs); len(v) != 0 {
		t.Errorf("clean trace flagged: %v", v)
	}
}

func TestLintCatchesViolations(t *testing.T) {
	cases := []struct {
		name string
		rec  Word
		want string
	}{
		{"misaligned ifetch", Pack(KindIFetch, 0x201, 4, 1, true, false, 0), "aligned"},
		{"short ifetch", Pack(KindIFetch, 0x200, 1, 1, true, false, 0), "aligned"},
		{"user ifetch from S0", Pack(KindIFetch, 0x80000200, 4, 1, true, false, 0), "system space"},
		{"kernel ifetch from P0", Pack(KindIFetch, 0x200, 4, 1, false, false, 0), "process space"},
		{"virtual PTE outside S0", Pack(KindPTERead, 0x1000, 4, 1, false, false, 0), "outside system space"},
		{"pid drift", Pack(KindDRead, 0x1000, 4, 9, true, false, 0), "last switch installed"},
		{"bad width", Pack(KindDRead, 0x1000, 8, 1, true, false, 0), "invalid width"},
	}
	for _, c := range cases {
		recs := []Word{
			Pack(KindCtxSwitch, 0, 0, 1, false, false, 1),
			c.rec,
		}
		v := Lint(recs)
		if len(v) == 0 {
			t.Errorf("%s: not flagged", c.name)
			continue
		}
		if !strings.Contains(strings.Join(v, "\n"), c.want) {
			t.Errorf("%s: violations %v missing %q", c.name, v, c.want)
		}
	}
}

func TestLintBadSwitchMarker(t *testing.T) {
	recs := []Word{Pack(KindCtxSwitch, 0, 0, 3, false, false, 2)}
	v := Lint(recs)
	if len(v) == 0 || !strings.Contains(v[0], "announces pid 2 but carries 3") {
		t.Errorf("violations: %v", v)
	}
}

// TestLintMarkerClasses covers the marker-specific violation classes:
// exception records emitted through the memory-reference path (nonzero
// width) and context-switch markers that announce the already-current
// PID (a patch firing on context load rather than context change).
func TestLintMarkerClasses(t *testing.T) {
	sw := func(pid uint8) Word { return Pack(KindCtxSwitch, 0, 0, pid, false, false, uint16(pid)) }
	cases := []struct {
		name string
		recs []Word
		want string // "" means clean
	}{
		{
			"exception with width",
			[]Word{sw(1), Pack(KindException, 0, 4, 1, false, false, 0x40)},
			"exception marker carries width 4",
		},
		{
			"exception clean",
			[]Word{sw(1), Pack(KindException, 0, 0, 1, false, false, 0x40)},
			"",
		},
		{
			"redundant switch",
			[]Word{sw(1), sw(1)},
			"announces already-current pid 1",
		},
		{
			"alternating switches clean",
			[]Word{sw(1), sw(2), sw(1)},
			"",
		},
		{
			"first switch never redundant",
			[]Word{sw(0)}, // PID 0 matches the zero value; curPID starts unknown
			"",
		},
	}
	for _, c := range cases {
		v := Lint(c.recs)
		joined := strings.Join(v, "\n")
		if c.want == "" {
			if len(v) != 0 {
				t.Errorf("%s: flagged clean trace: %v", c.name, v)
			}
		} else if !strings.Contains(joined, c.want) {
			t.Errorf("%s: violations %v missing %q", c.name, v, c.want)
		}
	}
}

// TestLintOrderNumeric pins the report ordering: by first-offending
// record index as a number, not as a string (which would put record 10
// before record 9).
func TestLintOrderNumeric(t *testing.T) {
	recs := make([]Word, 12)
	for i := range recs {
		recs[i] = Pack(KindIFetch, 0x200, 4, 0, true, false, 0)
	}
	// First violation class appears at record 9, second at record 10.
	recs[9] = Pack(KindIFetch, 0x201, 4, 0, true, false, 0)
	recs[10] = Pack(KindDRead, 0x1000, 8, 0, true, false, 0)
	v := Lint(recs)
	if len(v) != 2 {
		t.Fatalf("want 2 violations, got %v", v)
	}
	if !strings.HasPrefix(v[0], "record 9:") || !strings.HasPrefix(v[1], "record 10:") {
		t.Errorf("violations out of numeric order: %v", v)
	}
}

// TestLintFloodCapPerClass: a corrupt trace tripping several classes
// many times still yields exactly one line per class, each tagged with
// its stable ID.
func TestLintFloodCapPerClass(t *testing.T) {
	var recs []Word
	for i := 0; i < 40; i++ {
		recs = append(recs,
			Pack(KindIFetch, 0x201, 4, 0, true, false, 0),    // ifetch-align
			Pack(KindDRead, 0x1000, 8, 0, true, false, 0),    // width
			Pack(KindPTERead, 0x1000, 4, 0, false, false, 0), // pte-space
		)
	}
	v := Lint(recs)
	if len(v) != 3 {
		t.Fatalf("want one line per violation class (3), got %d: %v", len(v), v)
	}
	for _, class := range []string{LintIFetchAlign, LintWidth, LintPTESpace} {
		tag := "[" + class + "]"
		n := strings.Count(strings.Join(v, "\n"), tag)
		if n != 1 {
			t.Errorf("class %s rendered %d times, want exactly 1: %v", class, n, v)
		}
	}
	for _, line := range v {
		if !strings.Contains(line, "40 occurrence(s)") {
			t.Errorf("aggregated count missing from %q", line)
		}
	}
}

// TestLintClassIDsStable: every emitted tag is a registered class ID,
// and the exported list stays in sync with what Lint can produce.
func TestLintClassIDsStable(t *testing.T) {
	recs := []Word{
		Pack(NumKinds, 0, 0, 0, false, false, 0),           // kind
		Pack(KindCtxSwitch, 0, 0, 3, false, false, 2),      // switch-pid
		Pack(KindCtxSwitch, 0, 0, 3, false, false, 3),      // switch-redundant
		Pack(KindException, 0, 4, 3, false, false, 0),      // exception-width
		Pack(KindDRead, 0x1000, 8, 9, true, false, 0),      // width (code 3), pid-drift
		Pack(KindIFetch, 0x201, 4, 3, true, false, 0),      // ifetch-align
		Pack(KindIFetch, 0x200, 4, 3, false, true, 0),      // ifetch-phys, ifetch-kern-p0
		Pack(KindIFetch, 0x80000200, 4, 3, true, false, 0), // ifetch-user-s0
		Pack(KindPTERead, 0x1000, 4, 3, false, false, 0),   // pte-space
	}
	joined := strings.Join(Lint(recs), "\n")
	// seg-raw-len is a container-framing class (LintContainer, which
	// needs a *File); its coverage lives in TestLintSegRawLen.
	for _, class := range LintClasses() {
		if class == LintSegRawLen {
			continue
		}
		if !strings.Contains(joined, "["+class+"]") {
			t.Errorf("class %s not exercised: %s", class, joined)
		}
	}
}

func TestLintAggregatesCounts(t *testing.T) {
	var recs []Word
	for i := 0; i < 50; i++ {
		recs = append(recs, Pack(KindIFetch, 0x201, 4, 0, true, false, 0))
	}
	v := Lint(recs)
	if len(v) != 1 {
		t.Fatalf("want one aggregated violation, got %d", len(v))
	}
	if !strings.Contains(v[0], "50 occurrence(s)") {
		t.Errorf("count missing: %v", v)
	}
}
