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
// Arena) in one streaming pass.
func SummarizeSource(src Source) Summary {
	var s Summary
	var pids [256]bool
	pages := stats.NewU64Set(0)
	_ = src.EachChunk(func(chunk []Word) error {
		for _, r := range chunk {
			s.add(r, &pids, pages)
		}
		return nil
	})
	for _, seen := range pids {
		if seen {
			s.DistinctPIDs++
		}
	}
	s.DistinctPages = pages.Len()
	return s
}

func (s *Summary) add(r Word, pids *[256]bool, pages *stats.U64Set) {
	k := r.Kind()
	s.Total++
	s.ByKind[k]++
	switch k {
	case KindCtxSwitch:
		s.CtxSwitches++
		return
	case KindException:
		s.Exceptions++
		return
	}
	s.MemRefs++
	if r.User() {
		s.UserRefs++
	} else {
		s.SystemRefs++
	}
	switch k {
	case KindIFetch:
		s.IFetches++
	case KindDRead, KindPTERead:
		s.Reads++
	case KindDWrite, KindPTEWrite:
		s.Writes++
	}
	pid, addr := r.PID(), r.Addr()
	pids[pid] = true
	// Distinct pages are counted per PID per address space: tag the
	// page with the PID for process-space addresses, not for system
	// or physical ones.
	key := uint64(addr >> mem.PageShift)
	if !r.Phys() && addr>>30 != 2 {
		key |= uint64(pid) << 32
	}
	pages.Add(key)
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
