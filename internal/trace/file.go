package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// ErrEmpty reports a zero-length input: not a trace stream at all, as
// opposed to one truncated mid-header (which stays an
// io.ErrUnexpectedEOF naming what was being read). NewScanner and
// OpenReaderAt both wrap it, so callers distinguish the two with
// errors.Is(err, ErrEmpty).
var ErrEmpty = errors.New("empty trace stream")

// Stream format. Every trace is one segmented stream ("ATUMSEG"): a
// short header, then an append-only run of length-prefixed segments,
// one per reserved-buffer dump (see SegmentWriter). A capture held in
// memory until the end is simply a one-segment stream.
//
//	magic   [8]byte  "ATUMSEG\x00"
//	version uint16   3 (readers reject the retired versions 1 and 2)
//	codec   uint16   (CodecRaw or CodecDelta)
//	metaLen uint32   length of the metadata string (may be 0)
//	meta    [metaLen]byte   free-form capture provenance (UTF-8)
//	segment*   (see segment.go for the per-segment header; each
//	            carries a payload-encoding byte and an uncompressed
//	            length, so segments can be individually flate-packed)
//
// Readers walk the headers and hand each segment's payload to
// DecodeSegment: File for random access and mmap, Scanner for pipes.
// CodecRaw stores RecordBytes per record. CodecDelta stores, per
// record, a header byte (kind/user/phys/width), the PID only when it
// changes, and the address as a zigzag varint delta against the
// previous address of the same kind — instruction fetches and stack
// references are highly sequential, so this typically compresses 3-4x.
// Delta state resets at every segment boundary: each segment is
// independently decodable.
const (
	CodecRaw uint16 = iota
	CodecDelta
)

var segMagic = [8]byte{'A', 'T', 'U', 'M', 'S', 'E', 'G', 0}

// segVersion is the one stream layout: every segment header carries
// the cpu/seq stamps.
const segVersion = 3

// maxMetaLen bounds the provenance string (untrusted input on read).
const maxMetaLen = 1 << 16

// maxRecordCount bounds a per-segment record count from an untrusted
// header.
const maxRecordCount = 1 << 34

// WriteFile encodes recs to w as a one-segment stream with no metadata
// and zero capture counters.
func WriteFile(w io.Writer, recs []Word, codec uint16) error {
	sw, err := NewSegmentWriter(w, codec, "")
	if err != nil {
		return err
	}
	if _, err := sw.WriteSegment(recs, SegmentInfo{}); err != nil {
		return err
	}
	return sw.Close()
}

// promisedEOF upgrades a clean EOF to ErrUnexpectedEOF: the stream
// header promised data the reader did not deliver.
func promisedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// headerWalk reads a stream's headers in order: the stream header at
// construction, then one segment header per next call. It is the one
// place headers are validated — magic, version, codec, metadata
// length, segment marker, index order, field bounds and sequence marks
// (nonzero and strictly increasing) — so the Scanner (which reads each
// payload after its header) and File's index walk (which seeks past
// it) reject a malformed stream with the same message.
type headerWalk struct {
	r       io.Reader
	codec   uint16
	meta    string
	hdr     []byte // segment header scratch, marker included
	segs    int    // segment headers read so far
	lastSeq uint64
}

func newHeaderWalk(r io.Reader) (*headerWalk, error) {
	var m [8]byte
	if _, err := io.ReadFull(r, m[:]); err != nil {
		if err == io.EOF {
			// ReadFull reports a bare EOF only when not a single byte
			// arrived: the input is empty, not truncated.
			err = ErrEmpty
		}
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if m != segMagic {
		return nil, fmt.Errorf("trace: bad magic %q", m)
	}
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: reading segment-stream header: %w", promisedEOF(err))
	}
	v := binary.LittleEndian.Uint16(hdr[0:])
	if v != segVersion {
		return nil, fmt.Errorf("trace: unsupported segment-stream version %d", v)
	}
	w := &headerWalk{r: r, codec: binary.LittleEndian.Uint16(hdr[2:])}
	if w.codec != CodecRaw && w.codec != CodecDelta {
		return nil, fmt.Errorf("trace: unknown codec %d", w.codec)
	}
	metaLen := binary.LittleEndian.Uint32(hdr[4:])
	if metaLen > maxMetaLen {
		return nil, fmt.Errorf("trace: implausible metadata length %d", metaLen)
	}
	meta := make([]byte, metaLen)
	if _, err := io.ReadFull(r, meta); err != nil {
		return nil, fmt.Errorf("trace: reading metadata: %w", promisedEOF(err))
	}
	w.meta = string(meta)
	w.hdr = make([]byte, 4+segHeaderBytes)
	return w, nil
}

// next reads and validates the next segment header. A stream that ends
// cleanly where a marker would start returns io.EOF — the container is
// append-only, so that is a complete stream; anything shorter than a
// whole header is a truncation.
func (w *headerWalk) next() (SegmentInfo, error) {
	if _, err := io.ReadFull(w.r, w.hdr); err != nil {
		if err == io.EOF {
			return SegmentInfo{}, io.EOF
		}
		return SegmentInfo{}, fmt.Errorf("trace: segment %d header: %w", w.segs, err)
	}
	if [4]byte(w.hdr[:4]) != segMarker {
		return SegmentInfo{}, fmt.Errorf("trace: segment %d: bad marker %q", w.segs, w.hdr[:4])
	}
	info, err := parseSegmentHeader(w.hdr[4:], w.segs, w.codec)
	if err != nil {
		return SegmentInfo{}, err
	}
	if info.Seq <= w.lastSeq {
		return SegmentInfo{}, fmt.Errorf("trace: segment %d: sequence mark %d not above previous %d",
			info.Index, info.Seq, w.lastSeq)
	}
	w.segs++
	w.lastSeq = info.Seq
	return info, nil
}
