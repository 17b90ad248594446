package trace

import (
	"bytes"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// trackingReaderAt records every ReadAt range so tests can pin exactly
// which parts of a container an operation touched.
type trackingReaderAt struct {
	ra io.ReaderAt

	mu    sync.Mutex
	reads [][2]int64 // [offset, length)
	total int64
}

func (t *trackingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	n, err := t.ra.ReadAt(p, off)
	t.mu.Lock()
	t.reads = append(t.reads, [2]int64{off, int64(n)})
	t.total += int64(n)
	t.mu.Unlock()
	return n, err
}

// TestHeaderOnlyIndexReadsNoPayload: building the segment index over a
// compressed stream — and every metadata query after it — must read
// stream and segment headers only, never a stored payload byte. This is
// the contract that keeps atum-stats -meta-only O(segments) whatever
// the encoding: headers are never compressed, so indexing never
// inflates.
func TestHeaderOnlyIndexReadsNoPayload(t *testing.T) {
	const meta = "header-only"
	recs := makeTrace(4000, 17)
	b := writeSegmentedEnc(t, recs, 5, CodecDelta, SegEncFlate, meta)
	tr := &trackingReaderAt{ra: bytes.NewReader(b)}
	f, err := OpenReaderAt(tr, int64(len(b)))
	if err != nil {
		t.Fatalf("OpenReaderAt: %v", err)
	}
	// Metadata queries must not add reads.
	_ = f.Meta()
	_ = f.NumRecords()
	segs := f.Segments()
	if len(segs) != 5 {
		t.Fatalf("%d segments indexed", len(segs))
	}
	wantTotal := int64(8 + 8 + len(meta) + 5*(4+segHeaderBytes))
	if tr.total != wantTotal {
		t.Errorf("index build read %d bytes, want %d (headers only)", tr.total, wantTotal)
	}
	// No read range may intersect a payload extent.
	for i := range segs {
		lo, hi := f.segOff[i], f.segOff[i]+int64(segs[i].PayloadBytes)
		for _, r := range tr.reads {
			if r[0] < hi && r[0]+r[1] > lo {
				t.Errorf("read [%d,%d) overlaps segment %d payload [%d,%d)", r[0], r[0]+r[1], i, lo, hi)
			}
		}
	}
	// Sanity: the payloads do decode once asked for.
	got, err := f.Records(2)
	if err != nil {
		t.Fatalf("Records: %v", err)
	}
	compareRecords(t, got, recs)
}

// buildFlateSegment assembles a single-segment stream whose header
// fields the test controls completely.
func buildFlateSegment(t *testing.T, codec uint16, records uint64, stored []byte, rawLen uint64) []byte {
	t.Helper()
	var b bytes.Buffer
	b.Write(segMagic[:])
	var sh [8]byte
	binary.LittleEndian.PutUint16(sh[0:], segVersion)
	binary.LittleEndian.PutUint16(sh[2:], codec)
	b.Write(sh[:])
	b.Write(segMarker[:])
	var hdr [segHeaderBytes]byte
	binary.LittleEndian.PutUint64(hdr[4:], records)
	binary.LittleEndian.PutUint64(hdr[28:], uint64(len(stored)))
	hdr[36] = SegEncFlate
	binary.LittleEndian.PutUint64(hdr[37:], rawLen)
	binary.LittleEndian.PutUint64(hdr[47:], 1) // sequence mark
	b.Write(hdr[:])
	b.Write(stored)
	return b.Bytes()
}

// TestLintSegRawLen: a compressed segment whose header understates the
// inflated length still decodes (output is capped at RawBytes, and the
// delta codec stops at the declared record count), which is exactly why
// the container lint must flag the lie — no decode error ever will.
func TestLintSegRawLen(t *testing.T) {
	recs := makeTrace(100, 41)
	payload := appendDelta(nil, wordBytes(recs)) // one segment's codec bytes

	// A clean compressed stream lints clean.
	clean := writeSegmentedEnc(t, recs, 2, CodecDelta, SegEncFlate, "")
	cf, err := OpenReaderAt(bytes.NewReader(clean), int64(len(clean)))
	if err != nil {
		t.Fatal(err)
	}
	if fs := cf.LintContainer(); len(fs) != 0 {
		t.Fatalf("clean compressed stream flagged: %v", fs)
	}

	// Deflate the codec bytes plus a trailing tail the header will hide:
	// declared RawBytes covers the records and a sliver of the tail, so
	// decode succeeds but the stream inflates past its declaration.
	tail := []byte{0xDE, 0xAD, 0xBE, 0xEF, 0x42, 0x42, 0x42}
	var comp bytes.Buffer
	if err := deflateInto(&comp, append(append([]byte{}, payload...), tail...)); err != nil {
		t.Fatal(err)
	}
	declared := uint64(len(payload)) + 3
	b := buildFlateSegment(t, CodecDelta, uint64(len(recs)), comp.Bytes(), declared)

	sRecs, sErr := decodeStreaming(b)
	if sErr != nil {
		t.Fatalf("understating stream must still decode, got %v", sErr)
	}
	compareRecords(t, sRecs, recs)
	ref, err := referenceReadAll(bytes.NewReader(b))
	if err != nil {
		t.Fatalf("reference decode: %v", err)
	}
	compareRecords(t, ref, recs)
	rRecs, rErr := decodeRandomAccess(b, 1)
	if rErr != nil {
		t.Fatalf("random-access decode: %v", rErr)
	}
	compareRecords(t, rRecs, recs)

	f, err := OpenReaderAt(bytes.NewReader(b), int64(len(b)))
	if err != nil {
		t.Fatal(err)
	}
	fs := f.LintContainer()
	if len(fs) != 1 {
		t.Fatalf("want exactly one finding, got %v", fs)
	}
	if fs[0].Check != LintSegRawLen {
		t.Errorf("finding class %q, want %q", fs[0].Check, LintSegRawLen)
	}
	wantInflated := uint64(len(payload) + len(tail))
	msg := fs[0].Message
	if !strings.Contains(msg, "declares") || !strings.Contains(msg, "inflates") {
		t.Errorf("message %q does not describe the length mismatch", msg)
	}
	if !strings.Contains(msg, fmtUint(declared)) || !strings.Contains(msg, fmtUint(wantInflated)) {
		t.Errorf("message %q missing lengths %d/%d", msg, declared, wantInflated)
	}

	// A stored payload that is not deflate at all: decode fails hard, and
	// lint reports the inflate failure rather than a length.
	junk := buildFlateSegment(t, CodecDelta, uint64(len(recs)), bytes.Repeat([]byte{0xA5}, 64), declared)
	jf, err := OpenReaderAt(bytes.NewReader(junk), int64(len(junk)))
	if err != nil {
		t.Fatal(err)
	}
	jfs := jf.LintContainer()
	if len(jfs) != 1 || !strings.Contains(jfs[0].Message, "does not inflate") {
		t.Fatalf("corrupt deflate findings: %v", jfs)
	}
}

func fmtUint(v uint64) string { return strconv.FormatUint(v, 10) }

// TestOpenFileMapped: the mapped handle decodes identically to the
// plain one — compressed segments included — serves stored payloads
// zero-copy, and survives Close.
func TestOpenFileMapped(t *testing.T) {
	recs := makeTrace(3000, 53)
	for _, enc := range []uint8{SegEncRaw, SegEncFlate} {
		b := writeSegmentedEnc(t, recs, 4, CodecDelta, enc, "mapped-test")
		path := filepath.Join(t.TempDir(), "t.trc")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := OpenFileMapped(path)
		if err != nil {
			t.Fatalf("enc %d: OpenFileMapped: %v", enc, err)
		}
		if runtime.GOOS == "linux" && !f.Mapped() {
			t.Fatalf("enc %d: mapping unexpectedly unavailable on linux", enc)
		}
		got, err := f.Records(3)
		if err != nil {
			t.Fatalf("enc %d: Records: %v", enc, err)
		}
		compareRecords(t, got, recs)
		if f.Meta() != "mapped-test" {
			t.Errorf("enc %d: meta %q", enc, f.Meta())
		}
		if f.Mapped() {
			// Stored payloads must alias the mapping: zero copies.
			p, err := f.SegmentPayload(0)
			if err != nil {
				t.Fatal(err)
			}
			if len(p) > 0 && &p[0] != &f.mapped[f.segOff[0]] {
				t.Errorf("enc %d: SegmentPayload copied instead of aliasing the mapping", enc)
			}
		}
		if err := f.Close(); err != nil {
			t.Fatalf("enc %d: Close: %v", enc, err)
		}
	}
	// Mapping an empty file must fall back, not fail.
	empty := filepath.Join(t.TempDir(), "empty.trc")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileMapped(empty); err == nil {
		t.Error("empty container did not surface ErrEmpty through the fallback")
	}
}

// TestMappedDecodeAllocs: the ISSUE gate for the zero-copy lane — a
// raw-encoded mapped container must decode with no per-record
// allocation: SegmentPayload aliases the mapping and DecodeSegment
// reuses the caller's record buffer, so a full sweep of the file
// allocates nothing in steady state.
func TestMappedDecodeAllocs(t *testing.T) {
	recs := makeTrace(100_000, 3)
	b := writeSegmented(t, recs, 16, CodecDelta, "")
	path := filepath.Join(t.TempDir(), "t.trc")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := OpenFileMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if !f.Mapped() {
		t.Skip("memory mapping unavailable on this platform")
	}
	segs := f.Segments()
	var dst []Word
	sweep := func() {
		var base uint64
		for i, info := range segs {
			p, err := f.SegmentPayload(i)
			if err != nil {
				t.Fatal(err)
			}
			dst, err = DecodeSegment(f.codec, info, p, dst, base)
			if err != nil {
				t.Fatal(err)
			}
			base += uint64(len(dst))
		}
	}
	sweep() // warm the pools and size dst
	allocs := testing.AllocsPerRun(10, sweep)
	if allocs > 0 {
		t.Errorf("mapped raw-lane sweep: %.1f allocs per full decode, want 0", allocs)
	}
}

// TestSetEncodingValidation: unknown encodings are rejected up front,
// before any segment is framed with them.
func TestSetEncodingValidation(t *testing.T) {
	var buf bytes.Buffer
	sw, err := NewSegmentWriter(&buf, CodecDelta, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.SetEncoding(7); err == nil {
		t.Error("SetEncoding(7) accepted")
	}
	if err := sw.SetEncoding(SegEncFlate); err != nil {
		t.Errorf("SetEncoding(flate): %v", err)
	}
	if err := sw.SetEncoding(SegEncRaw); err != nil {
		t.Errorf("SetEncoding(raw): %v", err)
	}
}

// TestIncompressibleSegmentStoredRaw: when deflate does not strictly
// shrink a payload (a one-record segment is all framing), the writer
// stores it raw — the flag byte is per segment, not per stream, so a
// compressed capture never pays to store a segment bigger than its
// input.
func TestIncompressibleSegmentStoredRaw(t *testing.T) {
	var buf bytes.Buffer
	sw, err := NewSegmentWriter(&buf, CodecDelta, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.SetEncoding(SegEncFlate); err != nil {
		t.Fatal(err)
	}
	one := makeTrace(1, 61)
	info, err := sw.WriteSegment(one, SegmentInfo{})
	if err != nil {
		t.Fatal(err)
	}
	if info.Encoding != SegEncRaw {
		t.Errorf("one-record segment stored with encoding %d (%d bytes for %d raw), want raw fallback",
			info.Encoding, info.PayloadBytes, info.RawBytes)
	}
	// An empty segment is always raw, never a deflate header for nothing.
	einfo, err := sw.WriteSegment(nil, SegmentInfo{})
	if err != nil {
		t.Fatal(err)
	}
	if einfo.Encoding != SegEncRaw || einfo.PayloadBytes != 0 {
		t.Errorf("empty segment framed as %+v, want raw zero-byte payload", einfo)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := readAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, one) {
		t.Fatal("fallback stream decode differs from input")
	}
}
