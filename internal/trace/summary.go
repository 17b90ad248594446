package trace

import (
	"fmt"
	"sort"
	"strings"

	"atum/internal/mem"
	"atum/internal/stats"
)

// Summary aggregates the headline statistics of a trace — the columns of
// the paper's trace-characteristics table.
type Summary struct {
	Total   uint64 // all records
	MemRefs uint64 // actual memory references
	ByKind  [NumKinds]uint64

	UserRefs   uint64 // memory references made in user mode
	SystemRefs uint64 // memory references made in kernel mode

	IFetches uint64
	Reads    uint64 // data reads (incl. PTE reads)
	Writes   uint64 // data writes (incl. PTE writes)

	CtxSwitches   uint64
	Exceptions    uint64
	DistinctPIDs  int
	DistinctPages int // distinct virtual pages referenced
}

// Summarize scans a trace once and computes its Summary.
func Summarize(recs []Word) Summary { return SummarizeSource(NewArena(recs)) }

// SummarizeSource computes the Summary of any record source (e.g. an
// Arena) in one streaming pass. The pass counts records by kind and
// mode and derives the totals afterwards; a reference whose page key
// equals the last one of its kind skips the distinct-page set, which
// would not change.
func SummarizeSource(src Source) Summary {
	var n [NumKinds][2]uint64 // records by kind, then system (0) or user (1)
	var pids [256]bool
	var last [NumKinds]uint64
	for k := range last {
		last[k] = ^uint64(0) // no page key: keys fit in 40 bits
	}
	pages := stats.NewU64Set(0)
	_ = src.EachChunk(func(chunk []Word) error {
		for _, r := range chunk {
			k := r.Kind()
			mode := 0
			if r.User() {
				mode = 1
			}
			n[k][mode]++
			if !k.IsMemRef() {
				continue
			}
			pid, addr := r.PID(), r.Addr()
			pids[pid] = true
			// Distinct pages are counted per PID per address space: tag
			// the page with the PID for process-space addresses, not for
			// system or physical ones.
			key := uint64(addr >> mem.PageShift)
			if !r.Phys() && addr>>30 != 2 {
				key |= uint64(pid) << 32
			}
			if key != last[k] {
				pages.Add(key)
				last[k] = key
			}
		}
		return nil
	})

	var s Summary
	for k, byMode := range n {
		s.ByKind[k] = byMode[0] + byMode[1]
		s.Total += s.ByKind[k]
		if Kind(k).IsMemRef() {
			s.SystemRefs += byMode[0]
			s.UserRefs += byMode[1]
		}
	}
	s.MemRefs = s.UserRefs + s.SystemRefs
	s.IFetches = s.ByKind[KindIFetch]
	s.Reads = s.ByKind[KindDRead] + s.ByKind[KindPTERead]
	s.Writes = s.ByKind[KindDWrite] + s.ByKind[KindPTEWrite]
	s.CtxSwitches = s.ByKind[KindCtxSwitch]
	s.Exceptions = s.ByKind[KindException]
	for _, seen := range pids {
		if seen {
			s.DistinctPIDs++
		}
	}
	s.DistinctPages = pages.Len()
	return s
}

// PercentUser returns user references as a percentage of memory refs.
func (s Summary) PercentUser() float64 {
	if s.MemRefs == 0 {
		return 0
	}
	return 100 * float64(s.UserRefs) / float64(s.MemRefs)
}

// PercentSystem returns system references as a percentage of memory refs.
func (s Summary) PercentSystem() float64 {
	if s.MemRefs == 0 {
		return 0
	}
	return 100 * float64(s.SystemRefs) / float64(s.MemRefs)
}

// String renders a multi-line report.
func (s Summary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "records:      %d (memrefs %d)\n", s.Total, s.MemRefs)
	fmt.Fprintf(&b, "ifetch/read/write: %d / %d / %d\n", s.IFetches, s.Reads, s.Writes)
	fmt.Fprintf(&b, "user/system:  %d (%.1f%%) / %d (%.1f%%)\n",
		s.UserRefs, s.PercentUser(), s.SystemRefs, s.PercentSystem())
	fmt.Fprintf(&b, "ctx switches: %d, exceptions: %d, pids: %d, pages: %d\n",
		s.CtxSwitches, s.Exceptions, s.DistinctPIDs, s.DistinctPages)
	kinds := make([]string, 0, int(NumKinds))
	for k := Kind(0); k < NumKinds; k++ {
		if s.ByKind[k] > 0 {
			kinds = append(kinds, fmt.Sprintf("%s=%d", k, s.ByKind[k]))
		}
	}
	sort.Strings(kinds)
	fmt.Fprintf(&b, "by kind:      %s\n", strings.Join(kinds, " "))
	return b.String()
}
