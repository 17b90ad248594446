package trace

import (
	"fmt"
	"sort"

	"atum/internal/findings"
)

// Lint violation class IDs. Each rendered violation carries its class
// in brackets ("record 9: [ifetch-align] ..."), and every class
// aggregates into at most one line per run — the flood cap — so tooling
// can match on stable identifiers rather than message prose.
const (
	LintKind            = "kind"             // invalid record kind
	LintWidth           = "width"            // memory reference width not 1, 2 or 4
	LintSwitchPID       = "switch-pid"       // switch marker PID/Extra disagree
	LintSwitchRedundant = "switch-redundant" // switch to the already-current PID
	LintExceptionWidth  = "exception-width"  // exception marker with nonzero width
	LintPIDDrift        = "pid-drift"        // record PID differs from last switch
	LintIFetchAlign     = "ifetch-align"     // ifetch not an aligned longword
	LintIFetchPhys      = "ifetch-phys"      // physical ifetch
	LintIFetchUserS0    = "ifetch-user-s0"   // user-mode ifetch from system space
	LintIFetchKernP0    = "ifetch-kern-p0"   // kernel-mode ifetch from process space
	LintPTESpace        = "pte-space"        // virtual PTE reference outside system space
	LintSegRawLen       = "seg-raw-len"      // declared uncompressed length disagrees with the inflated payload
)

// LintClasses lists every violation class ID the lint passes can emit
// (Lint over records, LintContainer over segment framing).
func LintClasses() []string {
	return []string{
		LintKind, LintWidth, LintSwitchPID, LintSwitchRedundant,
		LintExceptionWidth, LintPIDDrift, LintIFetchAlign, LintIFetchPhys,
		LintIFetchUserS0, LintIFetchKernP0, LintPTESpace, LintSegRawLen,
	}
}

// Lint checks a trace for well-formedness — the sanity pass the original
// project would have run while debugging microcode patches, since a bad
// patch produces subtly malformed records long before it produces wrong
// miss rates. It returns one message per violation class (not per
// record), capped so a corrupt trace cannot flood the caller.
//
// Checks:
//   - record kinds are valid and memory references have width 1, 2 or 4;
//   - exception markers store no width — a stored width field means a
//     patch emitted the marker through the memory-reference path;
//   - instruction fetches are longword-aligned longwords;
//   - the PID field follows the last context-switch marker;
//   - kernel-mode instruction fetches come from system space (the
//     kernel executes from S0) and user-mode fetches never do;
//   - virtual PTE references lie in system space;
//   - context-switch markers carry the PID they announce and actually
//     switch — a marker announcing the already-current PID means the
//     patch fired on a context *load*, not a context *change*, double-
//     counting switches and splitting one process's stream in two.
func Lint(recs []Word) []string {
	fs := LintFindings(recs)
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = f.String()
	}
	return out
}

// LintFindings is Lint in the shared findings schema
// (internal/findings): one trace-plane finding per violation class,
// carrying the class ID as Check, the first offending record index and
// the occurrence count. Lint renders exactly these findings, so the
// string and structured forms cannot drift; atum-vet, atum-stats
// -check and atum-serve's lint endpoint all emit this shape.
func LintFindings(recs []Word) []findings.Finding {
	type violation struct {
		class string
		count int
		first int
		msg   string
	}
	seen := map[string]*violation{}
	report := func(i int, key, format string, args ...any) {
		v := seen[key]
		if v == nil {
			v = &violation{class: key, first: i, msg: fmt.Sprintf(format, args...)}
			seen[key] = v
		}
		v.count++
	}

	curPID := -1 // unknown until the first switch
	for i, r := range recs {
		k, addr, pid := r.Kind(), r.Addr(), r.PID()
		if k >= NumKinds {
			report(i, LintKind, "invalid record kind %d", k)
			continue
		}
		if k.IsMemRef() {
			switch r.Width() {
			case 1, 2, 4:
			default:
				report(i, LintWidth, "invalid width %d", r.Width())
			}
		}

		switch k {
		case KindCtxSwitch:
			if pid != uint8(r.Extra()) {
				report(i, LintSwitchPID, "context switch announces pid %d but carries %d", r.Extra(), pid)
			}
			if curPID >= 0 && int(pid) == curPID {
				report(i, LintSwitchRedundant, "context switch announces already-current pid %d", pid)
			}
			curPID = int(pid)
			continue
		case KindException:
			// Width reads 0 for every marker; the stored field shows
			// one that came through the memory-reference path.
			if c := r.widthCode(); c != 0 {
				report(i, LintExceptionWidth, "exception marker carries width %d", 1<<c)
			}
			continue
		}

		if curPID >= 0 && int(pid) != curPID {
			report(i, LintPIDDrift, "record pid %d but last switch installed %d", pid, curPID)
		}

		switch k {
		case KindIFetch:
			if addr%4 != 0 || r.Width() != 4 {
				report(i, LintIFetchAlign, "ifetch not an aligned longword: %08x w%d", addr, r.Width())
			}
			if r.Phys() {
				report(i, LintIFetchPhys, "physical ifetch")
			}
			system := addr>>30 == 2
			if r.User() && system {
				report(i, LintIFetchUserS0, "user-mode ifetch from system space %08x", addr)
			}
			if !r.User() && !system {
				report(i, LintIFetchKernP0, "kernel-mode ifetch from process space %08x", addr)
			}
		case KindPTERead, KindPTEWrite:
			if !r.Phys() && addr>>30 != 2 {
				report(i, LintPTESpace, "virtual PTE reference outside system space: %08x", addr)
			}
		}
	}

	// Deterministic order for tests and tooling: by first-offending
	// record index, then message. (Sorting the rendered strings would
	// order "record 10" before "record 9".)
	vs := make([]*violation, 0, len(seen))
	for _, v := range seen {
		vs = append(vs, v)
	}
	sort.Slice(vs, func(i, j int) bool {
		if vs[i].first != vs[j].first {
			return vs[i].first < vs[j].first
		}
		return vs[i].msg < vs[j].msg
	})
	out := make([]findings.Finding, len(vs))
	for i, v := range vs {
		out[i] = findings.Finding{
			Plane:    findings.PlaneTrace,
			Check:    v.class,
			Record:   findings.RecordIndex(uint64(v.first)),
			Count:    uint64(v.count),
			Severity: "error",
			Message:  v.msg,
		}
	}
	return out
}

// LintContainer checks framing-level invariants the record lint cannot
// see: every compressed segment's payload must inflate to exactly the
// uncompressed length its header declares. Decode tolerates a tail the
// header hides (output is capped at RawBytes), which is precisely why a
// lying header deserves a finding — it is the one corruption the decode
// path will not surface on its own. One finding per offending segment,
// anchored at the segment's first record index; truncated segments are
// skipped (the decode error already covers them).
func (f *File) LintContainer() []findings.Finding {
	var out []findings.Finding
	for i, info := range f.segs {
		if info.Encoding == SegEncRaw {
			continue
		}
		stored, err := f.SegmentPayload(i)
		if err != nil || uint64(len(stored)) < info.PayloadBytes {
			continue
		}
		n, ierr := inflatedLen(stored)
		var msg string
		switch {
		case ierr != nil:
			msg = fmt.Sprintf("segment %d compressed payload does not inflate: %v", info.Index, ierr)
		case n != info.RawBytes:
			msg = fmt.Sprintf("segment %d declares %d uncompressed bytes but payload inflates to %d",
				info.Index, info.RawBytes, n)
		default:
			continue
		}
		out = append(out, findings.Finding{
			Plane:    findings.PlaneTrace,
			Check:    LintSegRawLen,
			Record:   findings.RecordIndex(f.segBase[i]),
			Count:    1,
			Severity: "error",
			Message:  msg,
		})
	}
	return out
}
