// Package analysis computes the trace-derived measures reported in the
// paper's evaluation — working-set curves, reference mixes, inter-switch
// run lengths — and renders the text tables the experiment harness
// prints.
package analysis

import (
	"fmt"
	"sort"
	"strings"

	"atum/internal/mem"
	"atum/internal/trace"
)

// WorkingSet computes Denning working-set sizes W(tau) — the average
// number of distinct pages referenced within a trailing window of tau
// references — for each window size, in one pass using the
// inter-reference gap histogram: a page is in the working set at time t
// iff its most recent reference lies within (t-tau, t], so each
// reference r at time t contributes min(gap_to_next_ref, tau) reference
// slots of residency.
func WorkingSet(recs []trace.Word, taus []uint32) []float64 {
	// Memory references only; pages tagged by PID to separate address
	// spaces (system space shared).
	last := map[uint64]uint64{}
	var gaps []uint64 // gap histogram would need bounded domain; collect per-ref gap contributions lazily instead
	t := uint64(0)
	for _, r := range recs {
		if !r.Kind().IsMemRef() || r.Phys() {
			continue
		}
		t++
		key := pageKey(r)
		if prev, ok := last[key]; ok {
			gaps = append(gaps, t-prev)
		}
		last[key] = t
	}
	total := t
	out := make([]float64, len(taus))
	if total == 0 {
		return out
	}
	for i, tau := range taus {
		sum := uint64(0)
		for _, g := range gaps {
			if g < uint64(tau) {
				sum += g
			} else {
				sum += uint64(tau)
			}
		}
		// Tail residency: each page's final reference keeps it resident
		// for up to tau of the remaining trace.
		for _, lastT := range last {
			rem := total - lastT + 1
			if rem < uint64(tau) {
				sum += rem
			} else {
				sum += uint64(tau)
			}
		}
		out[i] = float64(sum) / float64(total)
	}
	return out
}

func pageKey(r trace.Word) uint64 {
	key := uint64(r.Addr() >> mem.PageShift)
	if r.Addr()>>30 != 2 { // process-private spaces
		key |= uint64(r.PID()) << 32
	}
	return key
}

// PerPID breaks a trace down by process: reference counts, mode split
// and distinct pages per PID (PID 0 is the kernel's boot/idle context).
func PerPID(recs []trace.Word) *Table {
	type row struct {
		refs, user, system uint64
		pages              map[uint32]bool
	}
	byPID := map[uint8]*row{}
	var order []uint8
	for _, r := range recs {
		if !r.Kind().IsMemRef() {
			continue
		}
		pid := r.PID()
		e := byPID[pid]
		if e == nil {
			e = &row{pages: map[uint32]bool{}}
			byPID[pid] = e
			order = append(order, pid)
		}
		e.refs++
		if r.User() {
			e.user++
		} else {
			e.system++
		}
		e.pages[r.Addr()>>mem.PageShift] = true
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	t := &Table{
		Title:   "per-process breakdown",
		Headers: []string{"pid", "memrefs", "user", "system", "%system", "pages"},
	}
	for _, pid := range order {
		e := byPID[pid]
		t.AddRow(N(pid), N(e.refs), N(e.user), N(e.system),
			F(100*float64(e.system)/float64(e.refs), 1), N(len(e.pages)))
	}
	return t
}

// RunLengths returns the distribution of memory references between
// successive context switches — the "how much cache-warming time does a
// process get" measure that drives multiprogramming cache behaviour.
func RunLengths(recs []trace.Word) []uint64 {
	var runs []uint64
	cur := uint64(0)
	for _, r := range recs {
		switch {
		case r.Kind() == trace.KindCtxSwitch:
			if cur > 0 {
				runs = append(runs, cur)
			}
			cur = 0
		case r.Kind().IsMemRef():
			cur++
		}
	}
	if cur > 0 {
		runs = append(runs, cur)
	}
	return runs
}

// MeanU64 averages a slice.
func MeanU64(xs []uint64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := uint64(0)
	for _, x := range xs {
		sum += x
	}
	return float64(sum) / float64(len(xs))
}

// EffectiveAccess computes the average memory-access time in cycles for
// a cache with the given hit time and miss penalty — the "so what" of a
// miss rate, and the number memory-system papers of the era optimised.
func EffectiveAccess(missRate float64, hitCycles, missPenaltyCycles float64) float64 {
	return hitCycles + missRate*missPenaltyCycles
}

// Table renders aligned text tables for the experiment harness.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

// Markdown renders the table as a GitHub-flavoured markdown table.
func (t *Table) Markdown() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "**%s**\n\n", t.Title)
	}
	b.WriteString("| " + strings.Join(t.Headers, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat("---|", len(t.Headers)) + "\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	return b.String()
}

// CSV renders the table as comma-separated values.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Headers, ","))
	b.WriteString("\n")
	for _, row := range t.Rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteString("\n")
	}
	return b.String()
}

// F formats a float for table cells.
func F(v float64, prec int) string { return fmt.Sprintf("%.*f", prec, v) }

// Pct formats a fraction as a percentage.
func Pct(v float64) string { return fmt.Sprintf("%.2f%%", 100*v) }

// N formats an integer.
func N[T ~int | ~int64 | ~uint64 | ~uint32 | ~int32 | ~uint8 | ~uint16](v T) string {
	return fmt.Sprintf("%d", v)
}
