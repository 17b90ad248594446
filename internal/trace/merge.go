package trace

import (
	"fmt"
	"io"
	"sort"
	"sync/atomic"
)

// SeqCounter issues the machine-wide sequence marks that stamp
// segments. One counter is shared by every CPU's spill service; marks
// start at 1 and each spill takes the next one at the moment its
// segment is written, so the marks are the global spill order by
// construction. The counter is atomic so spill paths need no extra
// lock even if cores ever spill from concurrent goroutines.
type SeqCounter struct {
	n atomic.Uint64
}

// Next returns the next sequence mark (1, 2, 3, ...).
func (c *SeqCounter) Next() uint64 { return c.n.Add(1) }

// MergeCPUs interleaves the per-CPU streams of one capture into a
// single stream on w, ordered by global sequence mark. All inputs must
// share one codec; segments keep their cpu/seq stamps and per-segment
// counters, and each is re-encoded with its original payload encoding.
// Because marks are unique across a capture (one shared SeqCounter)
// the output is a pure function of the input segments: any permutation
// of files yields byte-identical output, so a merged trace is a stable
// artifact to diff, hash, or cache.
//
// The merged stream replays exactly the machine-wide spill order —
// readers see one stream whose segments carry per-CPU attribution, and
// ArenaCPU recovers any single core's replay from it.
func MergeCPUs(w io.Writer, meta string, files ...*File) error {
	if len(files) == 0 {
		return fmt.Errorf("trace: merge: no input streams")
	}
	codec := files[0].codec
	for i, f := range files {
		if f.codec != codec {
			return fmt.Errorf("trace: merge: input %d codec %d differs from input 0 codec %d", i, f.codec, codec)
		}
	}

	type slot struct {
		file int
		seg  int
		seq  uint64
	}
	var slots []slot
	seen := make(map[uint64]int, 64)
	for fi, f := range files {
		for si, info := range f.segs {
			if prev, dup := seen[info.Seq]; dup {
				return fmt.Errorf("trace: merge: sequence mark %d appears in inputs %d and %d (streams are not one capture's set)",
					info.Seq, prev, fi)
			}
			seen[info.Seq] = fi
			slots = append(slots, slot{file: fi, seg: si, seq: info.Seq})
		}
	}
	// Marks are unique (checked above), so this order — and therefore
	// the output bytes — is independent of the argument order.
	sort.Slice(slots, func(i, j int) bool { return slots[i].seq < slots[j].seq })

	sw, err := NewSegmentWriter(w, codec, meta)
	if err != nil {
		return err
	}
	for _, s := range slots {
		f := files[s.file]
		info := f.segs[s.seg]
		recs, err := f.Segment(s.seg)
		if err != nil {
			return fmt.Errorf("trace: merge: input %d: %w", s.file, err)
		}
		if err := sw.SetEncoding(info.Encoding); err != nil {
			return err
		}
		if _, err := sw.WriteSegment(recs, info); err != nil {
			return fmt.Errorf("trace: merge: input %d segment %d: %w", s.file, s.seg, err)
		}
	}
	return sw.Close()
}
