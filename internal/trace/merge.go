package trace

import (
	"cmp"
	"fmt"
	"io"
	"slices"
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
// counters. Each stored payload is self-contained (codec state resets
// at every segment), so the merge copies it unchanged under a header
// re-framed at its output index; it first decodes the payload into one
// reused buffer, so a corrupt input fails the merge, naming the input
// and segment. On streams a SegmentWriter wrote, the output is
// byte-identical to decoding every segment and writing it again with
// its original payload encoding. The merge allocates in proportion to
// its largest segment, not to the capture.
//
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
	nseg := 0
	for i, f := range files {
		if f.codec != codec {
			return fmt.Errorf("trace: merge: input %d codec %d differs from input 0 codec %d", i, f.codec, codec)
		}
		nseg += len(f.segs)
	}

	type slot struct {
		file int
		seg  int
		seq  uint64
	}
	slots := make([]slot, 0, nseg)
	var most int64 // largest payload read from an unmapped input
	for fi, f := range files {
		for si, info := range f.segs {
			slots = append(slots, slot{file: fi, seg: si, seq: info.Seq})
			if f.mapped == nil {
				most = max(most, f.storedLen(si))
			}
		}
	}
	slices.SortFunc(slots, func(a, b slot) int { return cmp.Compare(a.seq, b.seq) })
	// Marks strictly increase within each input (the header walk checks),
	// so an equal pair comes from two inputs. With marks unique, the
	// order — and therefore the output bytes — is independent of the
	// argument order.
	for i := 1; i < len(slots); i++ {
		if a, b := slots[i-1], slots[i]; a.seq == b.seq {
			return fmt.Errorf("trace: merge: sequence mark %d appears in inputs %d and %d (streams are not one capture's set)",
				a.seq, min(a.file, b.file), max(a.file, b.file))
		}
	}

	sw, err := NewSegmentWriter(w, codec, meta)
	if err != nil {
		return err
	}
	buf := make([]byte, 0, most) // payloads of unmapped inputs, one at a time
	var recs []Word              // validation decode
	for _, s := range slots {
		f := files[s.file]
		info := f.segs[s.seg]
		stored, err := f.payload(s.seg, &buf)
		if err == nil {
			recs, err = DecodeSegment(codec, info, stored, recs, f.segBase[s.seg])
		}
		if err == nil {
			_, err = sw.writeFrame(info, stored)
		}
		if err != nil {
			return fmt.Errorf("trace: merge: input %d segment %d: %w", s.file, s.seg, err)
		}
	}
	return sw.Close()
}
