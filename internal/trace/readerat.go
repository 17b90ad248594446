package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"atum/internal/par"
)

// Random-access read path. Open (file.go) streams: it reads segment
// headers lazily and decodes records in order, which is the right shape
// for pipes and network streams but serialises the whole decode. When
// the container sits in a file (or any io.ReaderAt), OpenFile /
// OpenReaderAt instead walk the length-prefixed "ASEG" framing once —
// headers only, no payload reads — to build a segment index, and then
// decode segments concurrently: the delta codec resets at every segment
// boundary, so each segment is an independent decode job. The result is
// byte-identical to the streaming path (test-enforced, including
// truncation errors), because both feed the same batch codec layer.

// File is a random-access trace handle: the stream header plus a
// segment index built without touching record payloads. Metadata
// queries (Meta, Segments, NumRecords) are free; Arena decodes the
// payloads, fanning segments out over a worker pool.
type File struct {
	ra     io.ReaderAt
	size   int64
	closer io.Closer
	mapped []byte // whole container, when memory-mapped (OpenFileMapped)

	codec      uint16
	meta       string
	segmented  bool
	seqStamped bool   // v3 stream: segments carry cpu/seq marks
	segHdr     int    // per-segment header size for the stream's version
	count      uint64 // records promised by every header in the index

	segs    []SegmentInfo // segmented: per-segment metadata
	segOff  []int64       // file offset of each segment's payload
	segBase []uint64      // record index of each segment's first record
}

// OpenFile opens path and builds its segment index; Close releases the
// underlying file.
func OpenFile(path string) (*File, error) {
	osf, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := osf.Stat()
	if err != nil {
		osf.Close()
		return nil, err
	}
	f, err := OpenReaderAt(osf, st.Size())
	if err != nil {
		osf.Close()
		return nil, err
	}
	f.closer = osf
	return f, nil
}

// OpenFileMapped opens path like OpenFile but memory-maps the container
// when the platform supports it, so raw segment payloads are scanned by
// the batch codec in place — file pages, zero copies — and compressed
// ones inflate straight from the mapping into pooled buffers. Where
// mapping is unavailable (or fails, e.g. on an empty file) it falls
// back to the plain os.File path; Mapped reports which one the handle
// got. Close unmaps, so record slices returned by Segment remain valid
// but payload slices from SegmentPayload do not.
//
// The index is built from the file first and only then is the mapping
// established, private (copy-on-write) and covering exactly the prefix
// the index describes. A capture still appending to the file therefore
// cannot leak bytes past the open-time index into SegmentPayload
// aliases: the appended tail is outside the mapping entirely, not
// hiding in the page-rounded slack of a shared whole-file map.
func OpenFileMapped(path string) (*File, error) {
	osf, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := osf.Stat()
	if err != nil {
		osf.Close()
		return nil, err
	}
	f, err := OpenReaderAt(osf, st.Size())
	if err != nil {
		osf.Close()
		return nil, err
	}
	f.closer = osf
	data, merr := mmapFile(osf, f.indexedPrefix())
	if merr != nil {
		return f, nil // unmappable (empty file, exotic fs): plain file path
	}
	f.ra = bytes.NewReader(data)
	f.mapped = data
	f.closer = &mappedCloser{f: osf, data: data}
	return f, nil
}

// indexedPrefix returns how many leading bytes of the file the open-time
// header index accounts for: everything up to the end of the last
// segment's promised payload, clamped to the file size seen at open (a
// truncated final payload is still the index's business — the error
// surfaces at decode). For monolithic streams the whole file is the
// index's coverage.
func (f *File) indexedPrefix() int64 {
	if !f.segmented || len(f.segs) == 0 {
		return f.size
	}
	last := len(f.segs) - 1
	end := f.segOff[last] + int64(f.segs[last].PayloadBytes)
	if end > f.size {
		end = f.size
	}
	return end
}

// Mapped reports whether the handle serves payloads from a memory
// mapping (OpenFileMapped on a supporting platform).
func (f *File) Mapped() bool { return f.mapped != nil }

// mappedCloser releases the mapping before the file.
type mappedCloser struct {
	f    *os.File
	data []byte
}

func (m *mappedCloser) Close() error {
	err := munmap(m.data)
	if cerr := m.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// OpenReaderAt validates the stream header of either container and
// builds the segment index from ra, which must serve size bytes.
// bytes.Reader and os.File both satisfy io.ReaderAt, so in-memory
// captures get the same fast path as on-disk ones.
func OpenReaderAt(ra io.ReaderAt, size int64) (*File, error) {
	f := &File{ra: ra, size: size}
	if size == 0 {
		// Distinguish "nothing there at all" from a stream cut off
		// mid-header; callers match with errors.Is(err, ErrEmpty).
		return nil, fmt.Errorf("trace: reading magic: %w", ErrEmpty)
	}
	var m [8]byte
	if err := f.readAt(m[:], 0, "trace: reading magic"); err != nil {
		return nil, err
	}
	switch m {
	case magic:
		return f, f.openMonolithic()
	case segMagic:
		return f, f.openSegmented()
	}
	return nil, fmt.Errorf("trace: bad magic %q", m)
}

// readAt fills buf from offset off, mapping short reads to the same
// errors the streaming header reads produce.
func (f *File) readAt(buf []byte, off int64, what string) error {
	n, err := f.ra.ReadAt(buf, off)
	if n == len(buf) {
		return nil
	}
	if err == nil || err == io.EOF {
		if n == 0 && off >= f.size {
			err = io.EOF
		} else {
			err = io.ErrUnexpectedEOF
		}
	}
	return fmt.Errorf("%s: %w", what, err)
}

func (f *File) openMonolithic() error {
	var hdr [16]byte
	if err := f.readAt(hdr[:], 8, "trace: reading header"); err != nil {
		return err
	}
	if v := binary.LittleEndian.Uint16(hdr[0:]); v != version {
		return fmt.Errorf("trace: unsupported version %d", v)
	}
	f.codec = binary.LittleEndian.Uint16(hdr[2:])
	f.count = binary.LittleEndian.Uint64(hdr[4:])
	if f.codec != CodecRaw && f.codec != CodecDelta {
		return fmt.Errorf("trace: unknown codec %d", f.codec)
	}
	metaLen := binary.LittleEndian.Uint32(hdr[12:])
	if err := f.readMetaAt(metaLen, 8+16); err != nil {
		return err
	}
	if f.count > maxRecordCount {
		return fmt.Errorf("trace: implausible record count %d", f.count)
	}
	return nil
}

func (f *File) openSegmented() error {
	var hdr [8]byte
	if err := f.readAt(hdr[:], 8, "trace: reading segment-stream header"); err != nil {
		return err
	}
	v := binary.LittleEndian.Uint16(hdr[0:])
	if v != segVersion && v != segVersionV1 && v != segVersion3 {
		return fmt.Errorf("trace: unsupported segment-stream version %d", v)
	}
	f.codec = binary.LittleEndian.Uint16(hdr[2:])
	f.segmented = true
	f.seqStamped = v == segVersion3
	f.segHdr = segHdrLen(v)
	if f.codec != CodecRaw && f.codec != CodecDelta {
		return fmt.Errorf("trace: unknown codec %d", f.codec)
	}
	metaLen := binary.LittleEndian.Uint32(hdr[4:])
	if err := f.readMetaAt(metaLen, 8+8); err != nil {
		return err
	}
	return f.walkSegments(8 + 8 + int64(metaLen))
}

func (f *File) readMetaAt(metaLen uint32, off int64) error {
	if metaLen > maxMetaLen {
		return fmt.Errorf("trace: implausible metadata length %d", metaLen)
	}
	buf := make([]byte, metaLen)
	if err := f.readAt(buf, off, "trace: reading metadata"); err != nil {
		return err
	}
	f.meta = string(buf)
	return nil
}

// walkSegments builds the segment index by hopping header to header:
// each hop reads one fixed-size header and skips PayloadBytes, so
// indexing cost is per segment, not per record — cheap enough that
// metadata-only tools (atum-stats -meta-only) never touch a payload,
// compressed or not (headers are never compressed). A final segment
// whose payload overruns the file stays in the index; the truncation
// surfaces, with its record position, when that segment is decoded.
func (f *File) walkSegments(off int64) error {
	hdr := make([]byte, 4+f.segHdr)
	for off < f.size {
		n, err := f.ra.ReadAt(hdr[:], off)
		if n < len(hdr) {
			if err == nil || err == io.EOF {
				return fmt.Errorf("trace: segment %d header: %w", len(f.segs), io.ErrUnexpectedEOF)
			}
			return fmt.Errorf("trace: segment %d header: %w", len(f.segs), err)
		}
		if [4]byte(hdr[:4]) != segMarker {
			return fmt.Errorf("trace: segment %d: bad marker %q", len(f.segs), hdr[:4])
		}
		info, err := parseSegmentHeader(hdr[4:], len(f.segs), f.codec)
		if err != nil {
			return err
		}
		if f.seqStamped {
			last := uint64(0)
			if n := len(f.segs); n > 0 {
				last = f.segs[n-1].Seq
			}
			if info.Seq <= last {
				return fmt.Errorf("trace: segment %d: sequence mark %d not above previous %d",
					info.Index, info.Seq, last)
			}
		}
		f.segBase = append(f.segBase, f.count)
		f.segOff = append(f.segOff, off+int64(len(hdr)))
		f.segs = append(f.segs, info)
		f.count += info.Records
		off += int64(len(hdr)) + int64(info.PayloadBytes)
	}
	return nil
}

// Meta returns the stream's provenance string.
func (f *File) Meta() string { return f.meta }

// Segmented reports whether the underlying stream is a segment
// container rather than a monolithic file.
func (f *File) Segmented() bool { return f.segmented }

// SeqStamped reports whether the stream's segments carry cpu/seq marks
// (a version-3 container: a per-CPU SMP stream or a MergeCPUs output).
func (f *File) SeqStamped() bool { return f.seqStamped }

// Codec returns the stream's record codec (CodecRaw or CodecDelta).
func (f *File) Codec() uint16 { return f.codec }

// Segments returns the full per-segment metadata index (nil for
// monolithic streams). Unlike the streaming Reader, the index is
// complete before any record is decoded.
func (f *File) Segments() []SegmentInfo { return f.segs }

// NumRecords returns the record count promised by the stream's headers.
// The count is untrusted until a decode succeeds: a truncated stream
// errors from Arena before delivering it.
func (f *File) NumRecords() uint64 { return f.count }

// Close releases the underlying file when the handle came from
// OpenFile; it is a no-op for OpenReaderAt handles.
func (f *File) Close() error {
	if f.closer == nil {
		return nil
	}
	return f.closer.Close()
}

// payBufPool recycles segment payload buffers across decode jobs (and
// across Arena calls): a worker checks a buffer out, reads one
// segment's payload into it, decodes, and returns it.
var payBufPool = sync.Pool{New: func() any { return new([]byte) }}

// Arena decodes the whole stream into a chunked read-only arena.
// Segmented streams decode one segment per worker-pool job (workers <=
// 0 means all cores; 1 is the serial reference path) with results
// stitched in segment order, so every workers value yields identical
// records and — on a truncated or corrupt stream — the identical
// lowest-index error the streaming path reports.
func (f *File) Arena(workers int) (*Arena, error) {
	if !f.segmented {
		// A monolithic payload has no reset points to fan out over;
		// delegate to the streaming batch decoder.
		rd, err := Open(io.NewSectionReader(f.ra, 0, f.size))
		if err != nil {
			return nil, err
		}
		return rd.Arena()
	}
	chunks, err := par.Map(workers, len(f.segs), f.Segment)
	if err != nil {
		return nil, err
	}
	a := &Arena{}
	for _, c := range chunks {
		if len(c) > 0 {
			a.chunks = append(a.chunks, c)
			a.n += len(c)
		}
	}
	return a, nil
}

// ArenaCPU decodes only the segments captured by one processor of a
// sequence-stamped (v3) stream into a chunked arena — a single core's
// replay out of a per-CPU or merged SMP trace. cpu < 0 selects every
// segment (identical to Arena). Chunk order follows segment order, so
// the result is deterministic for any worker count.
func (f *File) ArenaCPU(workers, cpu int) (*Arena, error) {
	if cpu < 0 {
		return f.Arena(workers)
	}
	if !f.seqStamped {
		return nil, fmt.Errorf("trace: stream is not sequence-stamped; no per-CPU attribution to filter on")
	}
	var idx []int
	for i, s := range f.segs {
		if int(s.CPU) == cpu {
			idx = append(idx, i)
		}
	}
	chunks, err := par.Map(workers, len(idx), func(i int) ([]Record, error) {
		return f.Segment(idx[i])
	})
	if err != nil {
		return nil, err
	}
	a := &Arena{}
	for _, c := range chunks {
		if len(c) > 0 {
			a.chunks = append(a.chunks, c)
			a.n += len(c)
		}
	}
	return a, nil
}

// Records decodes the whole stream into one contiguous slice; Arena
// does the work, Flatten stitches.
func (f *File) Records(workers int) ([]Record, error) {
	a, err := f.Arena(workers)
	if err != nil {
		return nil, err
	}
	return a.Flatten(), nil
}

// minEncRecordBytes is the smallest possible encoded record (delta:
// header byte + 1-byte varint); it bounds how many records a payload of
// known length can hold, so a forged count cannot force a giant
// allocation.
const minEncRecordBytes = 2

// Segment decodes segment i (0-based in Segments() order) into a fresh
// record slice, reporting errors exactly as the streaming decoder
// would: truncation wraps io.ErrUnexpectedEOF and names the absolute
// record index. Each segment is an independent decode job (the delta
// codec resets at segment boundaries), which is what makes per-segment
// caching sound: a cached slice is identical to a fresh decode. Safe
// for concurrent callers.
func (f *File) Segment(i int) ([]Record, error) {
	start := time.Now()
	defer func() { mDecodeSegSecs.Observe(time.Since(start).Seconds()) }()
	info := f.segs[i]
	// avail is what the file actually holds of the promised payload;
	// only the final segment can come up short (walkSegments stops
	// there).
	avail := f.size - f.segOff[i]
	if avail < 0 {
		avail = 0
	}
	want := int64(info.PayloadBytes)
	short := want > avail
	if short {
		want = avail
	}
	if info.Records == 0 && info.Encoding == SegEncRaw {
		if short {
			return nil, fmt.Errorf("trace: segment %d payload: %w", info.Index, io.ErrUnexpectedEOF)
		}
		return nil, nil
	}

	// Fetch the stored payload: in place from the mapping when there is
	// one (the zero-copy path — the batch codec then scans file pages
	// directly), via a pooled buffer otherwise.
	var stored []byte
	if f.mapped != nil {
		stored = f.mapped[f.segOff[i] : f.segOff[i]+want]
	} else if want > 0 {
		pb := payBufPool.Get().(*[]byte)
		defer payBufPool.Put(pb)
		if int64(cap(*pb)) < want {
			*pb = make([]byte, want)
		}
		stored = (*pb)[:want]
		if err := f.readAt(stored, f.segOff[i], fmt.Sprintf("trace: segment %d payload", info.Index)); err != nil {
			return nil, err
		}
	}

	// Compressed segments inflate into a pooled buffer; from here on the
	// two encodings share one decode.
	payload := stored
	if info.Encoding != SegEncRaw {
		ib := infBufPool.Get().(*[]byte)
		defer infBufPool.Put(ib)
		data, infShort, err := inflateSegment(info, stored, short, ib)
		if err != nil {
			return nil, err
		}
		payload, short = data, infShort
	}
	if info.Records == 0 {
		if short {
			return nil, fmt.Errorf("trace: segment %d payload: %w", info.Index, io.ErrUnexpectedEOF)
		}
		return nil, nil
	}

	// The header's record count sizes the chunk, clamped by what the
	// payload could possibly encode (counts are untrusted input).
	alloc := info.Records
	if max := uint64(len(payload))/minEncRecordBytes + 1; alloc > max {
		alloc = max
	}
	dst := make([]Record, alloc)
	base := f.segBase[i]

	var nrec int
	var derr *batchError
	if f.codec == CodecRaw {
		nrec, _, derr = decodeRawBatch(dst, payload)
	} else {
		var st deltaState
		nrec, _, derr = decodeDeltaBatch(dst, payload, &st)
	}
	if derr != nil && !derr.truncated {
		return nil, recordError(derr, base+uint64(nrec))
	}
	if uint64(nrec) < info.Records {
		// The payload ran out before the count was met — the same
		// record-indexed truncation the streaming window reports.
		field := ""
		if derr != nil {
			field = derr.field
		}
		return nil, recordError(&batchError{field: field, truncated: true}, base+uint64(nrec))
	}
	if short {
		// All records decoded but the framing promised more payload
		// than the file holds; the streaming path fails discarding the
		// tail, and so do we.
		return nil, fmt.Errorf("trace: segment %d payload: %w", info.Index, io.ErrUnexpectedEOF)
	}
	mDecodeSegments.Inc()
	mDecodeRecords.Add(uint64(nrec))
	mDecodeBytes.Add(uint64(len(payload)))
	return dst[:nrec:nrec], nil
}

// SegmentPayload returns segment i's stored payload exactly as the
// container holds it — still deflated for flate segments — possibly
// shorter than the header's PayloadBytes when the file is truncated
// (DecodeSegment detects and reports that). On a mapped handle the
// slice aliases the mapping: zero copies, read-only, invalid after
// Close. Pair it with Segments()[i] and DecodeSegment for a decode loop
// that allocates nothing per segment in steady state.
func (f *File) SegmentPayload(i int) ([]byte, error) {
	info := f.segs[i]
	avail := f.size - f.segOff[i]
	if avail < 0 {
		avail = 0
	}
	want := int64(info.PayloadBytes)
	if want > avail {
		want = avail
	}
	if f.mapped != nil {
		return f.mapped[f.segOff[i] : f.segOff[i]+want], nil
	}
	buf := make([]byte, want)
	if err := f.readAt(buf, f.segOff[i], fmt.Sprintf("trace: segment %d payload", info.Index)); err != nil {
		return nil, err
	}
	return buf, nil
}
