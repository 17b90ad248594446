package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"sort"
	"testing"
)

// cpuSeg is one spilled segment of a synthetic SMP capture.
type cpuSeg struct {
	recs []Word
	cpu  uint16
	seq  uint64
}

// splitSMP deals recs into nseg segments round-robin over ncpu CPUs,
// drawing sequence marks from one shared counter — the same shape the
// kernel's per-CPU spill services produce.
func splitSMP(recs []Word, ncpu, nseg int) [][]cpuSeg {
	var ctr SeqCounter
	per := (len(recs) + nseg - 1) / nseg
	out := make([][]cpuSeg, ncpu)
	for i := 0; i < nseg; i++ {
		lo, hi := i*per, (i+1)*per
		if hi > len(recs) {
			hi = len(recs)
		}
		c := i % ncpu
		out[c] = append(out[c], cpuSeg{recs: recs[lo:hi], cpu: uint16(c), seq: ctr.Next()})
	}
	return out
}

// writeCPUStream writes one CPU's segments as a stream stamped with
// their cpu/seq marks.
func writeCPUStream(t *testing.T, segs []cpuSeg, codec uint16, enc uint8, meta string) []byte {
	t.Helper()
	var buf bytes.Buffer
	sw, err := NewSegmentWriter(&buf, codec, meta)
	if err != nil {
		t.Fatalf("NewSegmentWriter: %v", err)
	}
	if err := sw.SetEncoding(enc); err != nil {
		t.Fatalf("SetEncoding: %v", err)
	}
	for _, s := range segs {
		if _, err := sw.WriteSegment(s.recs, SegmentInfo{CPU: s.cpu, Seq: s.seq}); err != nil {
			t.Fatalf("WriteSegment: %v", err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return buf.Bytes()
}

func openStream(t *testing.T, b []byte) *File {
	t.Helper()
	f, err := OpenReaderAt(bytes.NewReader(b), int64(len(b)))
	if err != nil {
		t.Fatalf("OpenReaderAt: %v", err)
	}
	return f
}

func mergeStreams(t *testing.T, meta string, streams [][]byte, order []int) []byte {
	t.Helper()
	files := make([]*File, len(order))
	for i, idx := range order {
		files[i] = openStream(t, streams[idx])
	}
	var buf bytes.Buffer
	if err := MergeCPUs(&buf, meta, files...); err != nil {
		t.Fatalf("MergeCPUs: %v", err)
	}
	return buf.Bytes()
}

// TestMergeCPUsDeterminism: for every CPU count, codec and payload
// encoding, the merged stream is byte-identical regardless of the
// order the per-CPU inputs are presented in, decodes identically for
// any decode-worker count, replays as the global sequence order, and
// gives each core's records back unchanged through ArenaCPU.
func TestMergeCPUsDeterminism(t *testing.T) {
	recs := makeTrace(6000, 11)
	for _, ncpu := range []int{1, 2, 4} {
		for _, codec := range []uint16{CodecRaw, CodecDelta} {
			for _, enc := range []uint8{SegEncRaw, SegEncFlate} {
				name := fmt.Sprintf("cpus=%d/codec=%d/enc=%d", ncpu, codec, enc)
				perCPU := splitSMP(recs, ncpu, 4*ncpu)
				streams := make([][]byte, ncpu)
				for c, segs := range perCPU {
					streams[c] = writeCPUStream(t, segs, codec, enc, "smp")
				}

				fwd := make([]int, ncpu)
				rev := make([]int, ncpu)
				rot := make([]int, ncpu)
				for i := range fwd {
					fwd[i] = i
					rev[i] = ncpu - 1 - i
					rot[i] = (i + 1) % ncpu
				}
				merged := mergeStreams(t, "merged", streams, fwd)
				for _, order := range [][]int{rev, rot} {
					if other := mergeStreams(t, "merged", streams, order); !bytes.Equal(merged, other) {
						t.Fatalf("%s: merge order %v changed the output bytes", name, order)
					}
				}

				f := openStream(t, merged)
				serial, err := f.Records(1)
				if err != nil {
					t.Fatalf("%s: decode: %v", name, err)
				}
				parallel, err := f.Records(8)
				if err != nil {
					t.Fatalf("%s: parallel decode: %v", name, err)
				}
				if !reflect.DeepEqual(serial, parallel) {
					t.Fatalf("%s: 1-worker and 8-worker decodes differ", name)
				}
				// Segments were dealt out in seq order, so the merged
				// replay is the original record stream.
				if !reflect.DeepEqual(serial, recs) {
					t.Fatalf("%s: merged replay is not the global sequence order", name)
				}

				for c, segs := range perCPU {
					a, err := f.ArenaCPU(2, c)
					if err != nil {
						t.Fatalf("%s: ArenaCPU(%d): %v", name, c, err)
					}
					var want []Word
					for _, s := range segs {
						want = append(want, s.recs...)
					}
					if got := a.Flatten(); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: cpu %d replay has %d records, want %d (or content differs)",
							name, c, len(got), len(want))
					}
				}
			}
		}
	}
}

// TestMergeCPUsRejects: inputs that are not one capture's coherent set
// of per-CPU streams are errors, not silent corruption.
func TestMergeCPUsRejects(t *testing.T) {
	recs := makeTrace(600, 5)
	perCPU := splitSMP(recs, 2, 4)
	s0 := writeCPUStream(t, perCPU[0], CodecDelta, SegEncRaw, "smp")
	s1 := writeCPUStream(t, perCPU[1], CodecDelta, SegEncRaw, "smp")
	var buf bytes.Buffer

	if err := MergeCPUs(&buf, "m"); err == nil {
		t.Error("merge of zero inputs accepted")
	}

	// Codec mismatch.
	raw0 := writeCPUStream(t, perCPU[0], CodecRaw, SegEncRaw, "smp")
	if err := MergeCPUs(&buf, "m", openStream(t, raw0), openStream(t, s1)); err == nil {
		t.Error("merge accepted mixed codecs")
	}

	// Duplicate sequence marks (the same stream twice is not a capture's
	// per-CPU set).
	if err := MergeCPUs(&buf, "m", openStream(t, s0), openStream(t, s0)); err == nil {
		t.Error("merge accepted duplicate sequence marks")
	}
}

// FuzzMergeCPUs: per-CPU streams built from fuzzed bytes — sequence
// marks that may repeat, run backwards or be missing, inputs that may
// disagree on codec or end mid-segment, either payload encoding —
// never panic MergeCPUs. Inputs OpenReaderAt rejects (a stream whose
// own marks do not strictly increase) never reach it. Whenever the
// merge succeeds, its output opens with strictly increasing marks,
// replays the inputs' segments in mark order record for record (with
// their cpu/seq stamps and counters), and is byte-identical for every
// input order.
func FuzzMergeCPUs(f *testing.F) {
	material := func(nseg int) []byte {
		var b []byte
		for i := 0; i < nseg; i++ {
			nrec := 1 + i%5
			b = append(b, byte(i*5)|byte(nrec<<2), byte(3*i+1))
			for j := 0; j < nrec*RecordBytes; j++ {
				b = append(b, byte(i*31+j*7))
			}
		}
		return b
	}
	f.Add(uint8(2), uint8(0x01), material(6))  // delta, well-formed marks
	f.Add(uint8(4), uint8(0x03), material(12)) // delta + flate, four CPUs
	f.Add(uint8(1), uint8(0x00), material(3))  // raw, one CPU
	f.Add(uint8(3), uint8(0x05), material(9))  // free-form marks
	f.Add(uint8(2), uint8(0x09), material(6))  // mixed codecs
	f.Add(uint8(0), uint8(0x03), material(5))  // one stream: a serial capture merged alone
	f.Add(uint8(2), uint8(0xa3), material(6))  // truncated tail
	f.Fuzz(func(t *testing.T, ncpu, flags uint8, b []byte) {
		n := 1 + int(ncpu%4)
		codec := CodecRaw
		if flags&0x01 != 0 {
			codec = CodecDelta
		}
		enc := SegEncRaw
		if flags&0x02 != 0 {
			enc = SegEncFlate
		}

		// Segment material: a control byte (cpu, record count), a mark
		// byte, then RecordBytes per record. Well-formed marks come from
		// one machine-wide counter; free-form ones from the mark byte.
		perCPU := make([][]cpuSeg, n)
		var ctr SeqCounter
		for nseg := 0; len(b) >= 2 && nseg < 64; nseg++ {
			ctl, mark := b[0], b[1]
			b = b[2:]
			nrec := min(int(ctl>>2)%16, len(b)/RecordBytes)
			recs, _ := ParseBuffer(b[:nrec*RecordBytes])
			b = b[nrec*RecordBytes:]
			for i, r := range recs {
				if r.Kind() >= NumKinds {
					recs[i] = Pack(KindIFetch, r.Addr(), r.Width(), r.PID(), r.User(), r.Phys(), r.Extra())
				}
			}
			seq := ctr.Next()
			if flags&0x04 != 0 {
				seq = uint64(mark % 16) // may repeat, run backwards, or be 0
			}
			c := int(ctl) % n
			perCPU[c] = append(perCPU[c], cpuSeg{recs: recs, cpu: uint16(c), seq: seq})
		}

		streams := make([][]byte, n)
		for c, segs := range perCPU {
			cc := codec
			if flags&0x08 != 0 && c == n-1 {
				cc ^= 1 // mixed codecs
			}
			streams[c] = writeMarkedStream(t, segs, cc, enc)
		}
		if flags&0x20 != 0 {
			cut := 1 + int(flags>>6)
			streams[0] = streams[0][:max(len(streams[0])-cut, 0)]
		}
		files := make([]*File, n)
		for c, s := range streams {
			fl, err := OpenReaderAt(bytes.NewReader(s), int64(len(s)))
			if err != nil {
				return
			}
			files[c] = fl
		}

		var out bytes.Buffer
		if err := MergeCPUs(&out, "fuzz", files...); err != nil {
			return
		}
		merged := openStream(t, out.Bytes())
		type inSeg struct {
			info SegmentInfo
			recs []Word
		}
		var want []inSeg
		for c, fl := range files {
			for i, info := range fl.Segments() {
				recs, err := fl.Segment(i)
				if err != nil {
					t.Fatalf("input %d segment %d decodes for the merge but not here: %v", c, i, err)
				}
				want = append(want, inSeg{info, recs})
			}
		}
		sort.Slice(want, func(i, j int) bool { return want[i].info.Seq < want[j].info.Seq })
		segs := merged.Segments()
		if len(segs) != len(want) {
			t.Fatalf("merged %d segments from %d", len(segs), len(want))
		}
		var wantRecs []Word
		for i, s := range segs {
			if i > 0 && s.Seq <= segs[i-1].Seq {
				t.Fatalf("merged segment %d: mark %d not above %d", i, s.Seq, segs[i-1].Seq)
			}
			w := want[i].info
			if s.Seq != w.Seq || s.CPU != w.CPU || s.Records != w.Records ||
				s.Dropped != w.Dropped || s.DilationCycles != w.DilationCycles {
				t.Fatalf("merged segment %d: %+v, input %+v", i, s, w)
			}
			wantRecs = append(wantRecs, want[i].recs...)
		}
		got, err := merged.Records(1)
		if err != nil {
			t.Fatalf("merged stream does not decode: %v", err)
		}
		if len(got) != len(wantRecs) || (len(got) > 0 && !reflect.DeepEqual(got, wantRecs)) {
			t.Fatalf("merged stream replays %d records, inputs in mark order hold %d (or content differs)", len(got), len(wantRecs))
		}
		for _, order := range [][]*File{reversed(files), append(files[1:len(files):len(files)], files[0])} {
			var other bytes.Buffer
			if err := MergeCPUs(&other, "fuzz", order...); err != nil {
				t.Fatalf("reordered merge failed: %v", err)
			}
			if !bytes.Equal(other.Bytes(), out.Bytes()) {
				t.Fatal("input order changed the merged bytes")
			}
		}
	})
}

// writeMarkedStream writes one CPU's segments as a stream carrying
// exactly the given marks — zero, repeated or decreasing ones included,
// which the writer itself refuses to emit.
func writeMarkedStream(t *testing.T, segs []cpuSeg, codec uint16, enc uint8) []byte {
	t.Helper()
	var buf bytes.Buffer
	sw, err := NewSegmentWriter(&buf, codec, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.SetEncoding(enc); err != nil {
		t.Fatal(err)
	}
	var seqOffs []int // byte offset of each segment's seq field
	off := 16         // stream header, no meta
	for i, s := range segs {
		info, err := sw.WriteSegment(s.recs, SegmentInfo{Dropped: uint64(i), DilationCycles: uint64(i) * 56, CPU: s.cpu})
		if err != nil {
			t.Fatal(err)
		}
		seqOffs = append(seqOffs, off+4+47)
		off += 4 + segHeaderBytes + int(info.PayloadBytes)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	out := buf.Bytes()
	for i, o := range seqOffs {
		binary.LittleEndian.PutUint64(out[o:], segs[i].seq)
	}
	return out
}

func reversed(files []*File) []*File {
	out := make([]*File, len(files))
	for i, f := range files {
		out[len(files)-1-i] = f
	}
	return out
}
