package findings

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestStringPerPlane pins the rendered form of each plane to the exact
// strings the pre-unification tools printed: tooling and tests match on
// these, so they are part of the schema.
func TestStringPerPlane(t *testing.T) {
	cases := []struct {
		f    Finding
		want string
	}{
		{
			Finding{Plane: PlaneTrace, Check: "ifetch-align", Record: RecordIndex(9),
				Count: 3, Severity: "error", Message: "ifetch not an aligned longword: 00000002 w4"},
			"record 9: [ifetch-align] ifetch not an aligned longword: 00000002 w4 (3 occurrence(s))",
		},
		{
			Finding{Plane: PlaneAsm, Check: "wild-branch", File: "prog.s",
				Addr: "0x200", Block: "0x1f0", Severity: "error", Message: "branch to unmapped address"},
			"prog.s: error[wild-branch] 0x200 (block 0x1f0): branch to unmapped address",
		},
		{
			Finding{Plane: PlaneGo, Check: "pidtrunc", File: "x.go", Line: 4, Col: 7,
				Severity: "error", Message: "PID truncated to uint8"},
			"x.go:4:7: PID truncated to uint8 [pidtrunc]",
		},
	}
	for _, c := range cases {
		if got := c.f.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestSortDeterministic(t *testing.T) {
	fs := []Finding{
		{Plane: PlaneGo, File: "b.go", Line: 1, Check: "x"},
		{Plane: PlaneGo, File: "a.go", Line: 9, Check: "x"},
		{Plane: PlaneGo, File: "a.go", Line: 2, Col: 5, Check: "y"},
		{Plane: PlaneGo, File: "a.go", Line: 2, Col: 5, Check: "x"},
		{Plane: PlaneTrace, Record: RecordIndex(7), Check: "kind"},
		{Plane: PlaneTrace, Record: RecordIndex(2), Check: "width"},
	}
	Sort(fs)
	got := make([]string, len(fs))
	for i, f := range fs {
		got[i] = f.File + "/" + f.Check
	}
	want := []string{"/width", "/kind", "a.go/x", "a.go/y", "a.go/x", "b.go/x"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("after Sort, position %d = %s, want %s (full order %v)", i, got[i], want[i], got)
		}
	}
	// Sorting again must be a no-op (stability + total order on the keys).
	before := make([]Finding, len(fs))
	copy(before, fs)
	Sort(fs)
	for i := range fs {
		if fs[i] != before[i] {
			t.Fatalf("Sort not idempotent at %d", i)
		}
	}
}

func TestWriteJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(buf.String()); got != "[]" {
		t.Fatalf("nil findings render %q, want []", got)
	}

	buf.Reset()
	fs := []Finding{{Plane: PlaneTrace, Check: "kind", Record: RecordIndex(0), Count: 2, Severity: "error", Message: "m"}}
	if err := WriteJSON(&buf, fs); err != nil {
		t.Fatal(err)
	}
	var back []Finding
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || back[0].Record == nil || *back[0].Record != 0 || back[0].Count != 2 {
		t.Fatalf("round-trip lost fields: %+v", back)
	}
	// Record 0 must survive the encode: it is a pointer precisely so
	// omitempty cannot drop the first record index.
	if !strings.Contains(buf.String(), `"record": 0`) {
		t.Fatalf("record 0 missing from JSON: %s", buf.String())
	}
	// Planes that never set Record must omit it.
	buf.Reset()
	if err := WriteJSON(&buf, []Finding{{Plane: PlaneGo, Check: "c", Severity: "error", Message: "m"}}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), `"record"`) {
		t.Fatalf("go-plane finding leaked record field: %s", buf.String())
	}
}
