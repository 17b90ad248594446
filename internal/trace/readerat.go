package trace

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"atum/internal/par"
)

// Random-access read path. When the container sits in a file (or any
// io.ReaderAt), OpenFile / OpenReaderAt walk the length-prefixed
// "ASEG" framing once — headers only, no payload reads — to build a
// segment index, and then decode segments concurrently: the delta codec
// resets at every segment boundary, so each segment is an independent
// DecodeSegment job. Pipes, which cannot seek, read the same framing
// sequentially through Scanner; both share one header walk and one
// decoder, so they agree record for record and error for error.

// File is a random-access trace handle: the stream header plus a
// segment index built without touching record payloads. Metadata
// queries (Meta, Segments, NumRecords) are free; Arena decodes the
// payloads, fanning segments out over a worker pool.
type File struct {
	ra     io.ReaderAt
	size   int64
	closer io.Closer
	mapped []byte // whole container, when memory-mapped (OpenFileMapped)

	codec uint16
	meta  string
	count uint64 // records promised by every header in the index

	segs    []SegmentInfo // per-segment metadata
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
// surfaces at decode). A stream without segments maps whole.
func (f *File) indexedPrefix() int64 {
	if len(f.segs) == 0 {
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

// OpenReaderAt validates the stream header and builds the segment
// index from ra, which must serve size bytes. bytes.Reader and os.File
// both satisfy io.ReaderAt, so in-memory captures get the same fast
// path as on-disk ones.
//
// The index walk hops header to header: each hop reads one fixed-size
// header and seeks past PayloadBytes, so indexing cost is per segment,
// not per record — cheap enough that metadata-only tools (atum-stats
// -meta-only) never touch a payload, compressed or not (headers are
// never compressed). A final segment whose payload overruns the file
// stays in the index; the truncation surfaces, with its record
// position, when that segment is decoded.
func OpenReaderAt(ra io.ReaderAt, size int64) (*File, error) {
	sr := io.NewSectionReader(ra, 0, size)
	w, err := newHeaderWalk(sr)
	if err != nil {
		return nil, err
	}
	f := &File{ra: ra, size: size, codec: w.codec, meta: w.meta}
	for {
		info, err := w.next()
		if err == io.EOF {
			return f, nil
		}
		if err != nil {
			return nil, err
		}
		end, err := sr.Seek(int64(info.PayloadBytes), io.SeekCurrent)
		if err != nil {
			return nil, err
		}
		f.segBase = append(f.segBase, f.count)
		f.segOff = append(f.segOff, end-int64(info.PayloadBytes))
		f.segs = append(f.segs, info)
		f.count += info.Records
	}
}

// Meta returns the stream's provenance string.
func (f *File) Meta() string { return f.meta }

// Codec returns the stream's record codec (CodecRaw or CodecDelta).
func (f *File) Codec() uint16 { return f.codec }

// Segments returns the full per-segment metadata index, complete
// before any record is decoded.
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

// Arena decodes the whole stream into a chunked read-only arena, one
// segment per worker-pool job (workers <= 0 means all cores; 1 is the
// serial reference path) with chunks stitched in segment order, so
// every workers value yields identical records and — on a truncated or
// corrupt stream — the identical lowest-index error.
func (f *File) Arena(workers int) (*Arena, error) {
	chunks, err := par.Map(workers, len(f.segs), f.Segment)
	if err != nil {
		return nil, err
	}
	return NewArenaFromChunks(chunks), nil
}

// CPUSegments returns the indices, in stream order, of the segments
// captured by processor cpu. A CPU no segment carries — absent from
// the capture, or negative — is an error, not an empty selection, so a
// mistyped filter cannot silently analyse nothing.
func (f *File) CPUSegments(cpu int) ([]int, error) {
	var idx []int
	for i, s := range f.segs {
		if int(s.CPU) == cpu {
			idx = append(idx, i)
		}
	}
	if len(idx) == 0 {
		return nil, fmt.Errorf("trace: no segment was captured by CPU %d", cpu)
	}
	return idx, nil
}

// ArenaCPU decodes only the segments captured by one processor into a
// chunked arena — a single core's replay out of a per-CPU or merged
// SMP trace (a serial capture is all CPU 0). cpu < 0 selects every
// segment (identical to Arena). Chunk order follows segment order, so
// the result is deterministic for any worker count.
func (f *File) ArenaCPU(workers, cpu int) (*Arena, error) {
	if cpu < 0 {
		return f.Arena(workers)
	}
	idx, err := f.CPUSegments(cpu)
	if err != nil {
		return nil, err
	}
	chunks, err := par.Map(workers, len(idx), func(i int) ([]Word, error) {
		return f.Segment(idx[i])
	})
	if err != nil {
		return nil, err
	}
	return NewArenaFromChunks(chunks), nil
}

// Records decodes the whole stream into one contiguous slice; Arena
// does the work, Flatten stitches.
func (f *File) Records(workers int) ([]Word, error) {
	a, err := f.Arena(workers)
	if err != nil {
		return nil, err
	}
	return a.Flatten(), nil
}

// Segment decodes segment i (0-based in Segments() order) into a fresh
// record slice: the stored payload — a slice of the mapping, or read
// into a pooled buffer — goes through DecodeSegment, based at the
// segment's absolute record index, so errors name the same record a
// Scanner reading the same bytes reports. Each segment is an
// independent decode job (the delta codec resets at segment
// boundaries), which is what makes per-segment caching sound: a cached
// slice is identical to a fresh decode. Safe for concurrent callers.
func (f *File) Segment(i int) ([]Word, error) {
	start := time.Now()
	defer func() { mDecodeSegSecs.Observe(time.Since(start).Seconds()) }()
	pb := payBufPool.Get().(*[]byte)
	defer payBufPool.Put(pb)
	stored, err := f.payload(i, pb)
	if err != nil {
		return nil, err
	}
	recs, err := DecodeSegment(f.codec, f.segs[i], stored, nil, f.segBase[i])
	if err != nil {
		return nil, err
	}
	return recs[:len(recs):len(recs)], nil
}

// SegmentPayload returns segment i's stored payload exactly as the
// container holds it — still deflated for flate segments — possibly
// shorter than the header's PayloadBytes when the file is truncated
// (DecodeSegment detects and reports that). On a mapped handle the
// slice aliases the mapping: zero copies, read-only, invalid after
// Close. Pair it with Segments()[i] and DecodeSegment for a decode loop
// that allocates nothing per segment in steady state.
func (f *File) SegmentPayload(i int) ([]byte, error) {
	var buf []byte
	return f.payload(i, &buf)
}

// storedLen returns how many bytes of segment i's stored payload the
// file holds. Only the final segment can come up short of its header's
// PayloadBytes (the index walk stops there).
func (f *File) storedLen(i int) int64 {
	return min(int64(f.segs[i].PayloadBytes), max(f.size-f.segOff[i], 0))
}

// payload fetches what the file holds of segment i's stored payload:
// a slice of the mapping when there is one, otherwise a read into *buf
// (grown as needed).
func (f *File) payload(i int, buf *[]byte) ([]byte, error) {
	off, n := f.segOff[i], f.storedLen(i)
	if f.mapped != nil {
		return f.mapped[off : off+n], nil
	}
	if int64(cap(*buf)) < n {
		*buf = make([]byte, n)
	}
	p := (*buf)[:n]
	if k, err := f.ra.ReadAt(p, off); k < len(p) {
		if err == nil || err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("trace: segment %d payload: %w", f.segs[i].Index, err)
	}
	return p, nil
}
