package trace

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// scanAll reads a whole stream the pipe way — Scanner, then
// DecodeSegment per segment based at the records decoded so far — and
// returns its records and metadata. It is the sequential counterpart
// of OpenReaderAt + Records, which the tests hold it equal to.
func scanAll(r io.Reader) ([]Record, string, error) {
	sc, err := NewScanner(r)
	if err != nil {
		return nil, "", err
	}
	var recs []Record
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
func readAll(r io.Reader) ([]Record, error) {
	recs, _, err := scanAll(r)
	return recs, err
}

// writeOneSegment writes recs as a one-segment stream carrying meta —
// WriteFile with a provenance string.
func writeOneSegment(w io.Writer, recs []Record, codec uint16, meta string) error {
	sw, err := NewSegmentWriter(w, codec, meta)
	if err != nil {
		return err
	}
	if _, err := sw.WriteSegment(recs, SegmentInfo{}); err != nil {
		return err
	}
	return sw.Close()
}

// randomRecord generates structurally valid records for property tests:
// memory references carry width 1/2/4, markers carry width 0.
func randomRecord(r *rand.Rand) Record {
	widths := []uint8{1, 2, 4}
	k := Kind(r.Intn(int(NumKinds)))
	rec := Record{
		Kind: k,
		Addr: r.Uint32(),
		PID:  uint8(r.Intn(16)),
		User: r.Intn(2) == 0,
		Phys: r.Intn(4) == 0,
	}
	if k.IsMemRef() {
		rec.Width = widths[r.Intn(3)]
	} else {
		rec.Extra = uint16(r.Intn(1 << 16))
	}
	return rec
}

func TestPackedRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rec := randomRecord(r)
		var b [RecordBytes]byte
		rec.Encode(b[:])
		return DecodeRecord(b[:]) == rec
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestParseBuffer(t *testing.T) {
	recs := []Record{
		{Kind: KindIFetch, Addr: 0x200, Width: 4, User: true, PID: 1},
		{Kind: KindDWrite, Addr: 0x7FFFFFFC, Width: 4, User: true, PID: 1},
		{Kind: KindCtxSwitch, Extra: 2, PID: 2},
	}
	buf := make([]byte, len(recs)*RecordBytes)
	for i, r := range recs {
		r.Encode(buf[i*RecordBytes:])
	}
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

func makeTrace(n int, seed int64) []Record {
	r := rand.New(rand.NewSource(seed))
	recs := make([]Record, n)
	pc := uint32(0x200)
	for i := range recs {
		switch r.Intn(10) {
		case 0:
			recs[i] = Record{Kind: KindDRead, Addr: 0x1000 + uint32(r.Intn(4096)), Width: 4, User: true, PID: 1}
		case 1:
			recs[i] = Record{Kind: KindDWrite, Addr: 0x7FFFF000 + uint32(r.Intn(512)), Width: 4, User: true, PID: 1}
		case 2:
			recs[i] = Record{Kind: KindPTERead, Addr: 0x80010000 + uint32(r.Intn(64))*4, Width: 4, PID: 1}
		case 3:
			recs[i] = Record{Kind: KindCtxSwitch, Extra: uint16(r.Intn(4)), PID: uint8(r.Intn(4))}
		default:
			pc += uint32(r.Intn(3)) * 4
			recs[i] = Record{Kind: KindIFetch, Addr: pc, Width: 4, User: r.Intn(3) > 0, PID: 1}
		}
	}
	return recs
}

func TestFileRoundTripBothCodecs(t *testing.T) {
	recs := makeTrace(5000, 42)
	for _, codec := range []uint16{CodecRaw, CodecDelta} {
		var buf bytes.Buffer
		if err := WriteFile(&buf, recs, codec); err != nil {
			t.Fatalf("codec %d write: %v", codec, err)
		}
		got, err := readAll(&buf)
		if err != nil {
			t.Fatalf("codec %d read: %v", codec, err)
		}
		if !reflect.DeepEqual(got, recs) {
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
	good := Record{Kind: KindIFetch, Addr: 0x200, Width: 4}
	var buf bytes.Buffer
	if err := WriteFile(&buf, []Record{good, good}, CodecRaw); err != nil {
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
	recs := []Record{
		{Kind: KindIFetch, User: true, PID: 1, Width: 4},
		{Kind: KindIFetch, User: false, PID: 1, Width: 4},
		{Kind: KindPTERead, User: true, PID: 1, Width: 4},
		{Kind: KindDRead, User: true, PID: 2, Width: 4},
		{Kind: KindCtxSwitch, User: true, PID: 2},
	}
	u := FilterUser(recs)
	if len(u) != 3 { // user ifetch, user dread, user ctxswitch; PTE excluded
		t.Errorf("FilterUser kept %d, want 3: %v", len(u), u)
	}
	p := FilterPID(recs, 2)
	if len(p) != 2 {
		t.Errorf("FilterPID kept %d, want 2", len(p))
	}
	m := FilterMemRefs(recs)
	if len(m) != 4 {
		t.Errorf("FilterMemRefs kept %d, want 4", len(m))
	}
}

func TestSummarize(t *testing.T) {
	recs := []Record{
		{Kind: KindIFetch, Addr: 0x200, Width: 4, User: true, PID: 1},
		{Kind: KindIFetch, Addr: 0x80000200, Width: 4, User: false, PID: 1},
		{Kind: KindDRead, Addr: 0x1000, Width: 4, User: true, PID: 1},
		{Kind: KindDWrite, Addr: 0x1004, Width: 4, User: true, PID: 1},
		{Kind: KindPTERead, Addr: 0x80010000, Width: 4, User: false, PID: 1},
		{Kind: KindCtxSwitch, Extra: 2, PID: 2},
		{Kind: KindException, Extra: 0xC0, PID: 2},
		{Kind: KindDRead, Addr: 0x1000, Width: 4, User: true, PID: 2},
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

func TestRecordString(t *testing.T) {
	r := Record{Kind: KindCtxSwitch, PID: 3, Extra: 4}
	if s := r.String(); !strings.Contains(s, "ctxswitch") || !strings.Contains(s, "extra=0x4") {
		t.Errorf("String() = %q", s)
	}
}
