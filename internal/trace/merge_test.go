package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"sort"
	"strings"
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
func writeCPUStream(t testing.TB, segs []cpuSeg, codec uint16, enc uint8, meta string) []byte {
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

func openStream(t testing.TB, b []byte) *File {
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

// reencodeMerge is the merge done the long way, kept as the oracle for
// MergeCPUs's splice: decode every segment in mark order, then write its
// records again with its original payload encoding and stamps.
func reencodeMerge(t testing.TB, meta string, files ...*File) []byte {
	t.Helper()
	type seg struct {
		f    *File
		i    int
		info SegmentInfo
	}
	var segs []seg
	for _, f := range files {
		for i, info := range f.Segments() {
			segs = append(segs, seg{f, i, info})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].info.Seq < segs[j].info.Seq })
	var buf bytes.Buffer
	sw, err := NewSegmentWriter(&buf, files[0].Codec(), meta)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range segs {
		recs, err := s.f.Segment(s.i)
		if err != nil {
			t.Fatal(err)
		}
		if err := sw.SetEncoding(s.info.Encoding); err != nil {
			t.Fatal(err)
		}
		if _, err := sw.WriteSegment(recs, s.info); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestMergeCPUsMatchesReencode: for every CPU count, codec and payload
// encoding, the spliced merge is byte-identical to decoding each segment
// and writing it again. The streams carry per-segment counters and an
// empty segment (a spill that found the buffer drained), and the flate
// cases hold flate-stored payloads.
func TestMergeCPUsMatchesReencode(t *testing.T) {
	recs := makeTrace(6000, 13)
	for _, ncpu := range []int{1, 2, 4} {
		for _, codec := range []uint16{CodecRaw, CodecDelta} {
			for _, enc := range []uint8{SegEncRaw, SegEncFlate} {
				name := fmt.Sprintf("cpus=%d/codec=%d/enc=%d", ncpu, codec, enc)
				perCPU := splitSMP(recs, ncpu, 4*ncpu)
				perCPU[ncpu-1] = append(perCPU[ncpu-1], cpuSeg{cpu: uint16(ncpu - 1), seq: uint64(4*ncpu + 1)})
				files := make([]*File, ncpu)
				for c, segs := range perCPU {
					files[c] = openStream(t, writeMarkedStream(t, segs, codec, enc))
				}
				var got bytes.Buffer
				if err := MergeCPUs(&got, "merged", files...); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if want := reencodeMerge(t, "merged", files...); !bytes.Equal(got.Bytes(), want) {
					t.Fatalf("%s: spliced merge (%d bytes) differs from the re-encoded one (%d bytes)", name, got.Len(), len(want))
				}
				flate := 0
				for _, s := range openStream(t, got.Bytes()).Segments() {
					if s.Encoding == SegEncFlate {
						flate++
					}
				}
				if (enc == SegEncFlate) != (flate > 0) {
					t.Fatalf("%s: %d flate-stored segments", name, flate)
				}
			}
		}
	}
}

// TestMergeCPUsRejectsCorruptPayload: a payload whose header passes the
// index walk but which does not decode — a raw-codec record of the
// reserved kind 7, a flate payload whose first block has the reserved
// block type — fails the merge with an error naming its input and
// segment, whether it is the first segment merged or the last.
func TestMergeCPUsRejectsCorruptPayload(t *testing.T) {
	recs := makeTrace(2000, 17)
	perCPU := splitSMP(recs, 2, 4) // marks 1 and 3 on CPU 0, 2 and 4 on CPU 1
	for _, tc := range []struct {
		name       string
		codec      uint16
		enc        uint8
		input, seg int
		damage     func(payload []byte)
		want       string
	}{
		{"raw kind 7, first", CodecRaw, SegEncRaw, 0, 0, func(p []byte) { p[0] |= kindMask }, "invalid kind 7"},
		{"raw kind 7, last", CodecRaw, SegEncRaw, 1, 1, func(p []byte) { p[len(p)-RecordBytes] |= kindMask }, "invalid kind 7"},
		{"flate block type 3, first", CodecDelta, SegEncFlate, 0, 0, func(p []byte) { p[0] = 0x07 }, "inflate"},
		{"flate block type 3, last", CodecDelta, SegEncFlate, 1, 1, func(p []byte) { p[0] = 0x07 }, "inflate"},
	} {
		streams := make([][]byte, 2)
		for c, segs := range perCPU {
			streams[c] = writeCPUStream(t, segs, tc.codec, tc.enc, "smp")
		}
		victim := openStream(t, streams[tc.input])
		if got := victim.Segments()[tc.seg].Encoding; got != tc.enc {
			t.Fatalf("%s: target segment stored with encoding %d, want %d", tc.name, got, tc.enc)
		}
		off := victim.segOff[tc.seg]
		tc.damage(streams[tc.input][off : off+int64(victim.Segments()[tc.seg].PayloadBytes)])
		files := []*File{openStream(t, streams[0]), openStream(t, streams[1])}
		err := MergeCPUs(io.Discard, "m", files...)
		where := fmt.Sprintf("input %d segment %d", tc.input, tc.seg)
		if err == nil || !strings.Contains(err.Error(), where) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: merge error %v, want one naming %q and %q", tc.name, err, where, tc.want)
		}
	}
}

// TestMergeCPUsAllocs: the merge allocates in proportion to its largest
// segment, not to the capture. Eight times the segments, all of one
// size, may cost at most a quarter more bytes (the slot per segment).
// Payloads are stored raw so no pooled inflater is involved: the race
// detector drops pooled items at random, which would show as
// allocation here.
func TestMergeCPUsAllocs(t *testing.T) {
	const segRecs = 2000
	allocated := func(nseg int) uint64 {
		perCPU := splitSMP(makeTrace(nseg*segRecs, 19), 2, nseg)
		files := make([]*File, 2)
		for c, segs := range perCPU {
			files[c] = openStream(t, writeCPUStream(t, segs, CodecDelta, SegEncRaw, "smp"))
		}
		var ms runtime.MemStats
		least := ^uint64(0)
		for i := 0; i < 3; i++ {
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			if err := MergeCPUs(io.Discard, "merged", files...); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&ms)
			least = min(least, ms.TotalAlloc-before)
		}
		return least
	}
	small, large := allocated(4), allocated(32)
	if float64(large) > 1.25*float64(small) {
		t.Errorf("merging 32 segments allocated %d bytes, 4 segments %d: want at most 1.25x", large, small)
	}
}

// BenchmarkMergeCPUs merges a workload-shaped capture spilled by two
// CPUs as the SMP capture path writes it: delta codec, flate payloads,
// 16 segments per CPU. Bytes are the stored input bytes merged.
func BenchmarkMergeCPUs(b *testing.B) {
	perCPU := splitSMP(makeBenchTrace(200_000, 3), 2, 32)
	files := make([]*File, 2)
	var size int64
	for c, segs := range perCPU {
		s := writeCPUStream(b, segs, CodecDelta, SegEncFlate, "smp")
		files[c] = openStream(b, s)
		size += int64(len(s))
	}
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := MergeCPUs(io.Discard, "merged", files...); err != nil {
			b.Fatal(err)
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
// their cpu/seq stamps and counters), equals reencodeMerge byte for
// byte, and is byte-identical for every input order.
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
		if want := reencodeMerge(t, "fuzz", files...); !bytes.Equal(out.Bytes(), want) {
			t.Fatalf("spliced merge (%d bytes) differs from the re-encoded one (%d bytes)", out.Len(), len(want))
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
