package trace

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// scanAll reads a whole stream the pipe way — Scanner, then
// DecodeSegment per segment based at the records decoded so far — and
// returns its records and metadata. It is the sequential counterpart
// of OpenReaderAt + Records, which the tests hold it equal to.
func scanAll(r io.Reader) ([]Word, string, error) {
	sc, err := NewScanner(r)
	if err != nil {
		return nil, "", err
	}
	var recs []Word
	for {
		seg, err := sc.Next()
		if err == io.EOF {
			return recs, sc.Meta(), nil
		}
		if err != nil {
			return nil, "", err
		}
		out, err := DecodeSegment(seg.Codec, seg.Info, seg.Payload, nil, uint64(len(recs)))
		if err != nil {
			return nil, "", err
		}
		recs = append(recs, out...)
	}
}

// readAll is scanAll without the metadata.
func readAll(r io.Reader) ([]Word, error) {
	recs, _, err := scanAll(r)
	return recs, err
}

// writeOneSegment writes recs as a one-segment stream carrying meta —
// WriteFile with a provenance string.
func writeOneSegment(w io.Writer, recs []Word, codec uint16, meta string) error {
	sw, err := NewSegmentWriter(w, codec, meta)
	if err != nil {
		return err
	}
	if _, err := sw.WriteSegment(recs, SegmentInfo{}); err != nil {
		return err
	}
	return sw.Close()
}

// wordBytes lays words out as the packed bytes the collector stores.
func wordBytes(recs []Word) []byte {
	b := make([]byte, 0, len(recs)*RecordBytes)
	for _, w := range recs {
		b = binary.LittleEndian.AppendUint64(b, uint64(w))
	}
	return b
}

// randomRecord generates structurally valid records for property tests:
// memory references carry width 1/2/4, markers carry width 0.
func randomRecord(r *rand.Rand) Word {
	widths := []uint8{1, 2, 4}
	k := Kind(r.Intn(int(NumKinds)))
	addr, pid, user, phys := r.Uint32(), uint8(r.Intn(16)), r.Intn(2) == 0, r.Intn(4) == 0
	if k.IsMemRef() {
		return Pack(k, addr, widths[r.Intn(3)], pid, user, phys, 0)
	}
	return Pack(k, addr, 0, pid, user, phys, uint16(r.Intn(1<<16)))
}

// TestPackedRoundTripProperty pins the packed layout over every kind
// value × width code × User × Phys, with PID, Extra and Addr at 0 and at
// their maxima: each accessor returns what Pack was given (markers read
// Width 0 whatever width they were packed with), the fields sit at
// their documented bytes, and the bytes read back through ParseBuffer as
// the same record with a marker's stray width cleared.
func TestPackedRoundTripProperty(t *testing.T) {
	for k := Kind(0); k <= kindMask; k++ {
		for _, width := range []uint8{1, 2, 4, 8} {
			for flags := 0; flags < 4; flags++ {
				user, phys := flags&1 != 0, flags&2 != 0
				for edge := 0; edge < 8; edge++ {
					var pid uint8
					var extra uint16
					var addr uint32
					if edge&1 != 0 {
						pid = 0xff
					}
					if edge&2 != 0 {
						extra = 0xffff
					}
					if edge&4 != 0 {
						addr = 0xffff_ffff
					}
					w := Pack(k, addr, width, pid, user, phys, extra)
					wantWidth := width
					if !k.IsMemRef() {
						wantWidth = 0
					}
					if w.Kind() != k || w.Addr() != addr || w.Width() != wantWidth || w.PID() != pid ||
						w.User() != user || w.Phys() != phys || w.Extra() != extra {
						t.Fatalf("Pack(%d, %#x, %d, %d, %v, %v, %#x) reads back as %v (extra %#x)",
							k, addr, width, pid, user, phys, extra, w, w.Extra())
					}
					b := wordBytes([]Word{w})
					if b[1] != pid || binary.LittleEndian.Uint16(b[2:]) != extra || binary.LittleEndian.Uint32(b[4:]) != addr {
						t.Fatalf("%v: bytes % x do not hold pid, extra and addr at 1, 2-3 and 4-7", w, b)
					}
					got, err := ParseBuffer(b)
					if err != nil {
						t.Fatal(err)
					}
					if want := Pack(k, addr, wantWidth, pid, user, phys, extra); got[0] != want {
						t.Fatalf("%v: parsed %#x, want %#x", w, uint64(got[0]), uint64(want))
					}
				}
			}
		}
	}
	// Random records survive the byte layout unchanged.
	f := func(seed int64) bool {
		rec := randomRecord(rand.New(rand.NewSource(seed)))
		got, err := ParseBuffer(wordBytes([]Word{rec}))
		return err == nil && got[0] == rec
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestParseBuffer(t *testing.T) {
	recs := []Word{
		Pack(KindIFetch, 0x200, 4, 1, true, false, 0),
		Pack(KindDWrite, 0x7FFFFFFC, 4, 1, true, false, 0),
		Pack(KindCtxSwitch, 0, 0, 2, false, false, 2),
	}
	buf := wordBytes(recs)
	got, err := ParseBuffer(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("round trip mismatch: %v vs %v", got, recs)
	}
	if _, err := ParseBuffer(buf[:5]); err == nil {
		t.Error("odd-length buffer should error")
	}
}

func makeTrace(n int, seed int64) []Word {
	r := rand.New(rand.NewSource(seed))
	recs := make([]Word, n)
	pc := uint32(0x200)
	for i := range recs {
		switch r.Intn(10) {
		case 0:
			recs[i] = Pack(KindDRead, 0x1000+uint32(r.Intn(4096)), 4, 1, true, false, 0)
		case 1:
			recs[i] = Pack(KindDWrite, 0x7FFFF000+uint32(r.Intn(512)), 4, 1, true, false, 0)
		case 2:
			recs[i] = Pack(KindPTERead, 0x80010000+uint32(r.Intn(64))*4, 4, 1, false, false, 0)
		case 3:
			recs[i] = Pack(KindCtxSwitch, 0, 0, uint8(r.Intn(4)), false, false, uint16(r.Intn(4)))
		default:
			pc += uint32(r.Intn(3)) * 4
			recs[i] = Pack(KindIFetch, pc, 4, 1, r.Intn(3) > 0, false, 0)
		}
	}
	return recs
}

func TestFileRoundTripBothCodecs(t *testing.T) {
	recs := makeTrace(5000, 42)
	// Bits no field reads — a marker's width field, byte 0's reserved
	// bit — do not survive a decode: both codecs give back exactly Pack
	// of the fields, so their decodes compare equal.
	in := append(slices.Clone(recs),
		Pack(KindException, 0x80001234, 4, 1, false, false, 0x40),
		Pack(KindDRead, 0x1000, 2, 1, true, false, 0)|flagReserved)
	want := append(slices.Clone(recs),
		Pack(KindException, 0x80001234, 0, 1, false, false, 0x40),
		Pack(KindDRead, 0x1000, 2, 1, true, false, 0))
	for _, codec := range []uint16{CodecRaw, CodecDelta} {
		var buf bytes.Buffer
		if err := WriteFile(&buf, in, codec); err != nil {
			t.Fatalf("codec %d write: %v", codec, err)
		}
		got, err := readAll(&buf)
		if err != nil {
			t.Fatalf("codec %d read: %v", codec, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("codec %d: round trip mismatch", codec)
		}
	}
}

func TestFileMetadataRoundTrip(t *testing.T) {
	recs := makeTrace(100, 4)
	var buf bytes.Buffer
	meta := "workloads=sieve cost=56"
	if err := writeOneSegment(&buf, recs, CodecDelta, meta); err != nil {
		t.Fatal(err)
	}
	got, gotMeta, err := scanAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if gotMeta != meta {
		t.Errorf("meta = %q, want %q", gotMeta, meta)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Error("records differ")
	}
	// Empty metadata path still round-trips.
	buf.Reset()
	if err := WriteFile(&buf, recs, CodecRaw); err != nil {
		t.Fatal(err)
	}
	if _, err := readAll(&buf); err != nil {
		t.Fatal(err)
	}
	// Oversized metadata rejected on write.
	if err := writeOneSegment(&buf, recs, CodecRaw, strings.Repeat("x", maxMetaLen+1)); err == nil {
		t.Error("oversized metadata accepted")
	}
}

func TestDeltaCodecCompresses(t *testing.T) {
	recs := makeTrace(20000, 7)
	var raw, delta bytes.Buffer
	if err := WriteFile(&raw, recs, CodecRaw); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(&delta, recs, CodecDelta); err != nil {
		t.Fatal(err)
	}
	ratio := float64(raw.Len()) / float64(delta.Len())
	if ratio < 1.5 {
		t.Errorf("delta codec ratio %.2f, want >= 1.5 (raw=%d delta=%d)",
			ratio, raw.Len(), delta.Len())
	}
}

func TestFileErrors(t *testing.T) {
	if _, err := readAll(strings.NewReader("not a trace")); err == nil {
		t.Error("bad magic accepted")
	}
	var buf bytes.Buffer
	if err := WriteFile(&buf, nil, 99); err == nil {
		t.Error("unknown codec accepted")
	}
	// Truncated payload.
	var ok bytes.Buffer
	if err := WriteFile(&ok, makeTrace(100, 1), CodecRaw); err != nil {
		t.Fatal(err)
	}
	trunc := ok.Bytes()[:ok.Len()-4]
	if _, err := readAll(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated file accepted")
	}
}

func TestDeltaRejectsInvalidKind(t *testing.T) {
	// Regression (found by fuzzing): a forged header byte with kind=7
	// must be rejected, not index past the per-kind delta state.
	var buf bytes.Buffer
	if err := WriteFile(&buf, makeTrace(3, 1), CodecDelta); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[16+4+segHeaderBytes] |= 0x07 // corrupt the first record's kind bits
	if _, err := readAll(bytes.NewReader(data)); err == nil {
		t.Error("invalid kind accepted")
	}
}

// TestRawRejectsInvalidKind: a raw-codec record of the reserved kind 7
// used to decode on every raw read path and then index past
// Summary.ByKind in SummarizeSource. Each raw path now rejects it with
// the record-indexed error the delta codec gives.
func TestRawRejectsInvalidKind(t *testing.T) {
	const want = "trace: record 1: invalid kind 7"
	good := Pack(KindIFetch, 0x200, 4, 0, false, false, 0)
	var buf bytes.Buffer
	if err := WriteFile(&buf, []Word{good, good}, CodecRaw); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[len(data)-RecordBytes] = 0x07 // the second record's kind bits
	if _, err := readAll(bytes.NewReader(data)); err == nil || err.Error() != want {
		t.Errorf("scanner: err %v, want %q", err, want)
	}
	f, err := OpenReaderAt(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Arena(1); err == nil || err.Error() != want {
		t.Errorf("random access: err %v, want %q", err, want)
	}
	payload, err := f.SegmentPayload(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSegment(CodecRaw, f.Segments()[0], payload, nil, 0); err == nil || err.Error() != want {
		t.Errorf("DecodeSegment: err %v, want %q", err, want)
	}
}

func TestReadFileHugeCountDoesNotPreallocate(t *testing.T) {
	// Regression (found by fuzzing): the header's record count is
	// untrusted; a forged huge count must fail on truncated payload
	// rather than attempting a giant allocation. (Delta codec: the raw
	// codec's header check would reject the count before decode.)
	var buf bytes.Buffer
	if err := WriteFile(&buf, makeTrace(2, 1), CodecDelta); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// The segment's count field follows the 16-byte stream header, the
	// marker and the index.
	binary.LittleEndian.PutUint64(data[16+4+4:], 1<<33)
	if _, err := readAll(bytes.NewReader(data)); err == nil {
		t.Error("truncated huge-count stream accepted")
	}
	if _, err := decodeRandomAccess(data, 1); err == nil {
		t.Error("random access accepted the truncated huge-count stream")
	}
}

func TestFilters(t *testing.T) {
	recs := []Word{
		Pack(KindIFetch, 0, 4, 1, true, false, 0),
		Pack(KindIFetch, 0, 4, 1, false, false, 0),
		Pack(KindPTERead, 0, 4, 1, true, false, 0),
		Pack(KindDRead, 0, 4, 2, true, false, 0),
		Pack(KindCtxSwitch, 0, 0, 2, true, false, 0),
	}
	u := FilterUser(recs)
	if len(u) != 3 { // user ifetch, user dread, user ctxswitch; PTE excluded
		t.Errorf("FilterUser kept %d, want 3: %v", len(u), u)
	}
}

func TestSummarize(t *testing.T) {
	recs := []Word{
		Pack(KindIFetch, 0x200, 4, 1, true, false, 0),
		Pack(KindIFetch, 0x80000200, 4, 1, false, false, 0),
		Pack(KindDRead, 0x1000, 4, 1, true, false, 0),
		Pack(KindDWrite, 0x1004, 4, 1, true, false, 0),
		Pack(KindPTERead, 0x80010000, 4, 1, false, false, 0),
		Pack(KindCtxSwitch, 0, 0, 2, false, false, 2),
		Pack(KindException, 0, 0, 2, false, false, 0xC0),
		Pack(KindDRead, 0x1000, 4, 2, true, false, 0),
	}
	s := Summarize(recs)
	if s.Total != 8 || s.MemRefs != 6 {
		t.Errorf("total=%d memrefs=%d", s.Total, s.MemRefs)
	}
	if s.UserRefs != 4 || s.SystemRefs != 2 {
		t.Errorf("user=%d system=%d", s.UserRefs, s.SystemRefs)
	}
	if s.CtxSwitches != 1 || s.Exceptions != 1 {
		t.Errorf("switches=%d exceptions=%d", s.CtxSwitches, s.Exceptions)
	}
	if s.DistinctPIDs != 2 {
		t.Errorf("pids=%d", s.DistinctPIDs)
	}
	// Pages: pid1:{0x200>>9=1? (0x200>>9=1), 0x1000>>9=8}, shared sys
	// pages for 0x80000200 and 0x80010000, pid2:{8}. = 5 distinct.
	if s.DistinctPages != 5 {
		t.Errorf("pages=%d, want 5", s.DistinctPages)
	}
	if s.PercentUser()+s.PercentSystem() < 99.9 {
		t.Error("percentages do not sum")
	}
	if !strings.Contains(s.String(), "ctx switches: 1") {
		t.Errorf("String() = %q", s.String())
	}
}

// TestRecordString pins the dump line atum-stats -dump prints for each
// record shape. A marker prints w0 even when packed with a width.
func TestRecordString(t *testing.T) {
	for _, c := range []struct {
		w    Word
		want string
	}{
		{Pack(KindDRead, 0x1000, 4, 1, true, false, 0), "dread     pid=1  u 00001000 w4"},
		{Pack(KindIFetch, 0x200, 4, 12, true, false, 0), "ifetch    pid=12 u 00000200 w4"},
		{Pack(KindPTERead, 0x123450, 4, 2, false, true, 0), "pteread   pid=2  k 00123450 w4 phys"},
		{Pack(KindCtxSwitch, 0, 0, 3, false, false, 3), "ctxswitch pid=3  k 00000000 w0 extra=0x3"},
		{Pack(KindException, 0x80001234, 0, 3, false, false, 0xc0), "exception pid=3  k 80001234 w0 extra=0xc0"},
		{Pack(KindException, 0x80001234, 4, 3, false, false, 0xc0), "exception pid=3  k 80001234 w0 extra=0xc0"},
	} {
		if got := c.w.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}
