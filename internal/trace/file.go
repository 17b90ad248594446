package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// ErrEmpty reports a zero-length input: not a trace stream at all, as
// opposed to one truncated mid-header (which stays an
// io.ErrUnexpectedEOF naming what was being read). Both Open and
// OpenReaderAt wrap it, so callers distinguish the two with
// errors.Is(err, ErrEmpty).
var ErrEmpty = errors.New("empty trace stream")

// Stream file formats. Two on-disk containers share the record codecs:
//
// Monolithic ("ATUMTRC"), one contiguous payload:
//
//	magic   [8]byte  "ATUMTRC\x00"
//	version uint16   (2)
//	codec   uint16   (CodecRaw or CodecDelta)
//	count   uint64   record count
//	metaLen uint32   length of the metadata string (may be 0)
//	meta    [metaLen]byte   free-form capture provenance (UTF-8)
//	payload
//
// Segmented ("ATUMSEG"), an append-only stream of length-prefixed
// segments written as the reserved buffer spills (see SegmentWriter):
//
//	magic   [8]byte  "ATUMSEG\x00"
//	version uint16   (2; readers also accept 1)
//	codec   uint16
//	metaLen uint32
//	meta    [metaLen]byte
//	segment*   (see segment.go for the per-segment header; v2 headers
//	            carry a payload-encoding byte and an uncompressed
//	            length, so segments can be individually flate-packed)
//
// Open reads either container through one Reader; a segmented stream
// decodes to the exact concatenation of its segments' records, so
// consumers never see the difference. CodecRaw stores RecordBytes per
// record. CodecDelta stores, per record, a header byte
// (kind/user/phys/width), the PID only when it changes, and the address
// as a zigzag varint delta against the previous address of the same
// kind — instruction fetches and stack references are highly
// sequential, so this typically compresses 3-4x. Delta state resets at
// every segment boundary: each segment is independently decodable.
const (
	CodecRaw uint16 = iota
	CodecDelta
)

var (
	magic    = [8]byte{'A', 'T', 'U', 'M', 'T', 'R', 'C', 0}
	segMagic = [8]byte{'A', 'T', 'U', 'M', 'S', 'E', 'G', 0}
)

const (
	version      = 2
	segVersion   = 2 // default written; v1 (no per-segment encoding) still readable
	segVersionV1 = 1
	segVersion3  = 3 // sequence-stamped (SMP per-CPU / merged) streams
)

// segHdrLen returns the per-segment header size (after the marker) for
// a segment-stream version.
func segHdrLen(v uint16) int {
	switch v {
	case segVersionV1:
		return segHeaderBytesV1
	case segVersion3:
		return segHeaderBytesV3
	}
	return segHeaderBytes
}

// maxMetaLen bounds the provenance string (untrusted input on read).
const maxMetaLen = 1 << 16

// maxRecordCount bounds a (per-stream or per-segment) record count from
// an untrusted header.
const maxRecordCount = 1 << 34

// WriteFile encodes recs to w using the given codec, with no metadata.
func WriteFile(w io.Writer, recs []Record, codec uint16) error {
	return WriteFileMeta(w, recs, codec, "")
}

// WriteFileMeta encodes recs with a provenance string (workload names,
// machine configuration, capture options) that tools display.
func WriteFileMeta(w io.Writer, recs []Record, codec uint16, meta string) error {
	if len(meta) > maxMetaLen {
		return fmt.Errorf("trace: metadata too long (%d bytes)", len(meta))
	}
	if codec != CodecRaw && codec != CodecDelta {
		return fmt.Errorf("trace: unknown codec %d", codec)
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	var hdr [16]byte
	binary.LittleEndian.PutUint16(hdr[0:], version)
	binary.LittleEndian.PutUint16(hdr[2:], codec)
	binary.LittleEndian.PutUint64(hdr[4:], uint64(len(recs)))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(len(meta)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := bw.WriteString(meta); err != nil {
		return err
	}
	payload := appendPacked(nil, recs)
	if codec == CodecDelta {
		payload = appendDelta(nil, payload)
	}
	if _, err := bw.Write(payload); err != nil {
		return err
	}
	return bw.Flush()
}

// Reader is the single read handle for trace streams: Open validates
// the header of either container format and the Reader then serves
// whichever access pattern the caller needs — streaming batches
// (Decode), a chunked shared arena (Arena), or one contiguous slice
// (Records). The three are alternatives over one underlying stream
// position, not independent views: pick one, or mix Decode with a final
// Arena/Records call for the remainder.
type Reader struct {
	d *Decoder
}

// Open reads and validates a trace stream header (monolithic or
// segmented) and returns the read handle positioned at the first
// record. It is the only streaming entry point: one-call decodes that
// used to go through ReadFile/ReadFileMeta/ReadArena are Open followed
// by Records/Arena (plus Meta for the provenance string), and the
// batch-pulling loop the old NewDecoder served is Open followed by
// Decode. For random access over an io.ReaderAt, use OpenReaderAt. The
// traceopen analyzer keeps this the case repo-wide: reintroducing a
// wrapper (or calling one) is a vet finding.
func Open(r io.Reader) (*Reader, error) {
	d, err := newDecoder(r)
	if err != nil {
		return nil, err
	}
	return &Reader{d: d}, nil
}

// Meta returns the stream's provenance string.
func (r *Reader) Meta() string { return r.d.meta }

// Segmented reports whether the underlying stream is a segment
// container (written by SegmentWriter) rather than a monolithic file.
func (r *Reader) Segmented() bool { return r.d.segmented }

// Segments returns the per-segment metadata encountered so far; after a
// full decode it covers the whole stream. Monolithic streams have none.
func (r *Reader) Segments() []SegmentInfo { return r.d.Segments() }

// Remaining returns how many records are still undecoded according to
// the headers read so far. For segmented streams this only counts the
// current segment (later segment headers are read lazily), so treat it
// as a lower bound and rely on Decode's io.EOF for termination.
func (r *Reader) Remaining() uint64 { return r.d.Remaining() }

// Decode streams up to len(dst) records into dst and returns how many
// it wrote. It returns io.EOF once the stream is exhausted (possibly
// alongside the final batch). Truncated streams fail with a wrapped
// io.ErrUnexpectedEOF naming the record index.
func (r *Reader) Decode(dst []Record) (int, error) { return r.d.Next(dst) }

// Records decodes the remainder of the stream into one contiguous
// slice. For large traces prefer Arena, which decodes in fixed-size
// chunks and never re-copies records while a contiguous slice grows.
func (r *Reader) Records() ([]Record, error) {
	// Header counts are untrusted input: cap the up-front allocation and
	// let append grow the slice if the stream really is that long.
	capHint := r.d.Remaining()
	if capHint > 1<<20 {
		capHint = 1 << 20
	}
	recs := make([]Record, 0, capHint)
	for {
		if len(recs) == cap(recs) {
			recs = append(recs, Record{})[:len(recs)]
		}
		n, err := r.d.Next(recs[len(recs):cap(recs)])
		recs = recs[:len(recs)+n]
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// decodeBufBytes sizes the streaming decoder's read buffer. Batches
// decode from Peek windows of up to this size, so it is also the unit
// of work between refills; 64KB keeps the window well above the largest
// encoded record while staying cache-resident.
const decodeBufBytes = 64 << 10

// Decoder streams records out of a trace stream without materialising
// the whole payload: callers pull batches with Next into buffers they
// size themselves. Reader is built on it.
//
// Decoding is batched: Next peeks a buffered window, hands it to the
// batch codec layer (batch.go) which scans it with index arithmetic,
// then discards the consumed bytes — no per-byte reads, no per-record
// error wrapping on the happy path.
type Decoder struct {
	br    *bufio.Reader
	codec uint16
	meta  string
	count uint64 // total records promised by headers read so far
	read  uint64 // records decoded so far

	// Segment-container state. segPay counts the current segment's
	// undecoded payload bytes so a batch window never crosses the
	// segment framing. segHdr is the per-segment header size for the
	// stream's version.
	segmented bool
	segHdr    int
	segs      []SegmentInfo
	segPay    uint64

	// Compressed-segment state: a flate segment's stored payload is
	// read whole and inflated up front (the deflate stream is not
	// seekable), then batches are served from inf — the same batch
	// codec, one extra buffer. infShort records that the inflated bytes
	// fell short of the header's promise.
	infActive bool
	inf       []byte
	infPos    int
	infShort  bool
	payBuf    []byte // stored-payload scratch, reused across segments
	infBuf    []byte // inflated-payload scratch, reused across segments

	// Delta-codec inter-record state (reset at segment boundaries).
	st deltaState
}

func newDecoder(r io.Reader) (*Decoder, error) {
	br := bufio.NewReaderSize(r, decodeBufBytes)
	var m [8]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		if err == io.EOF {
			// ReadFull reports a bare EOF only when not a single byte
			// arrived: the input is empty, not truncated.
			return nil, fmt.Errorf("trace: reading magic: %w", ErrEmpty)
		}
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	switch m {
	case magic:
		return newMonolithicDecoder(br)
	case segMagic:
		return newSegmentedDecoder(br)
	}
	return nil, fmt.Errorf("trace: bad magic %q", m)
}

func newMonolithicDecoder(br *bufio.Reader) (*Decoder, error) {
	var hdr [16]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if v := binary.LittleEndian.Uint16(hdr[0:]); v != version {
		return nil, fmt.Errorf("trace: unsupported version %d", v)
	}
	d := &Decoder{
		br:    br,
		codec: binary.LittleEndian.Uint16(hdr[2:]),
		count: binary.LittleEndian.Uint64(hdr[4:]),
	}
	if d.codec != CodecRaw && d.codec != CodecDelta {
		return nil, fmt.Errorf("trace: unknown codec %d", d.codec)
	}
	if err := d.readMeta(binary.LittleEndian.Uint32(hdr[12:])); err != nil {
		return nil, err
	}
	if d.count > maxRecordCount {
		return nil, fmt.Errorf("trace: implausible record count %d", d.count)
	}
	return d, nil
}

func newSegmentedDecoder(br *bufio.Reader) (*Decoder, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: reading segment-stream header: %w", err)
	}
	v := binary.LittleEndian.Uint16(hdr[0:])
	if v != segVersion && v != segVersionV1 && v != segVersion3 {
		return nil, fmt.Errorf("trace: unsupported segment-stream version %d", v)
	}
	d := &Decoder{
		br:        br,
		codec:     binary.LittleEndian.Uint16(hdr[2:]),
		segmented: true,
		segHdr:    segHdrLen(v),
	}
	if d.codec != CodecRaw && d.codec != CodecDelta {
		return nil, fmt.Errorf("trace: unknown codec %d", d.codec)
	}
	if err := d.readMeta(binary.LittleEndian.Uint32(hdr[4:])); err != nil {
		return nil, err
	}
	return d, nil
}

func (d *Decoder) readMeta(metaLen uint32) error {
	if metaLen > maxMetaLen {
		return fmt.Errorf("trace: implausible metadata length %d", metaLen)
	}
	metaBuf := make([]byte, metaLen)
	if _, err := io.ReadFull(d.br, metaBuf); err != nil {
		return fmt.Errorf("trace: reading metadata: %w", err)
	}
	d.meta = string(metaBuf)
	return nil
}

// Meta returns the stream's provenance string.
func (d *Decoder) Meta() string { return d.meta }

// Segments returns the per-segment metadata read so far (nil for
// monolithic streams).
func (d *Decoder) Segments() []SegmentInfo { return d.segs }

// Remaining returns how many records are still undecoded according to
// the (untrusted) headers read so far; a truncated stream errors from
// Next before delivering that many. Segmented streams read segment
// headers lazily, so Remaining only counts the current segment.
func (d *Decoder) Remaining() uint64 { return d.count - d.read }

// Next decodes up to len(dst) records into dst and returns how many it
// wrote. It returns io.EOF once the stream is exhausted (possibly
// alongside the final batch). A stream that ends before delivering the
// records its headers promised fails with a wrapped io.ErrUnexpectedEOF
// identifying the record index.
func (d *Decoder) Next(dst []Record) (int, error) {
	n := 0
	for n < len(dst) {
		if d.Remaining() == 0 {
			if !d.segmented {
				return n, io.EOF
			}
			// A segment's payload may legally outlast its record count
			// (framing is length-prefixed); skip to the boundary before
			// reading the next header.
			if err := d.discardSegmentTail(); err != nil {
				return n, err
			}
			if err := d.nextSegment(); err != nil {
				return n, err
			}
			continue // the new segment may itself be empty
		}
		k, err := d.decodeBatch(dst[n:])
		n += k
		if err != nil {
			return n, err
		}
	}
	if !d.segmented && d.Remaining() == 0 {
		return n, io.EOF
	}
	return n, nil
}

// promisedEOF upgrades a clean EOF to ErrUnexpectedEOF: the stream
// header promised data the reader did not deliver.
func promisedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// decodeBatch decodes one window's worth of records into dst (at least
// one, unless dst is empty or the stream fails). It refills the buffer
// only when the window is too short to finish a record, so the common
// path is pure in-memory scanning.
func (d *Decoder) decodeBatch(dst []Record) (int, error) {
	if rem := d.Remaining(); uint64(len(dst)) > rem {
		dst = dst[:rem]
	}
	for {
		var window []byte
		var readErr error
		var hard bool
		if d.infActive {
			// Compressed segment: the whole inflated payload is on hand,
			// so the window is always complete and always hard.
			window, readErr, hard = d.inf[d.infPos:], io.EOF, true
		} else {
			window, readErr = d.peekWindow()
			// hard: the window cannot grow — it already spans the rest of
			// the segment payload, or the underlying stream is done. A
			// record truncated at a hard edge is a real error; at a soft
			// edge it just waits for the next refill.
			hard = readErr != nil
			if d.segmented && uint64(len(window)) >= d.segPay {
				window = window[:d.segPay]
				hard = true
			}
		}

		if d.codec == CodecRaw {
			nrec, consumed, derr := decodeRawBatch(dst, window)
			d.consume(consumed)
			d.read += uint64(nrec)
			mDecodeRecords.Add(uint64(nrec))
			if derr != nil {
				return nrec, recordError(derr, d.read)
			}
			if nrec == 0 {
				if hard {
					return 0, d.windowError(&batchError{truncated: true}, readErr)
				}
				continue
			}
			return nrec, nil
		}

		nrec, consumed, derr := decodeDeltaBatch(dst, window, &d.st)
		d.consume(consumed)
		d.read += uint64(nrec)
		mDecodeRecords.Add(uint64(nrec))
		if derr == nil {
			return nrec, nil
		}
		if derr.truncated && !hard {
			if nrec > 0 {
				return nrec, nil // deliver; the next call refills
			}
			continue
		}
		if derr.truncated {
			return nrec, d.windowError(derr, readErr)
		}
		return nrec, recordError(derr, d.read)
	}
}

// windowError reports a record cut off at a hard window edge. A real
// read error (not EOF) takes precedence over the truncation diagnosis.
func (d *Decoder) windowError(derr *batchError, readErr error) error {
	if readErr != nil && readErr != io.EOF {
		return fmt.Errorf("trace: record %d%s: %w", d.read, derr.field, readErr)
	}
	return recordError(derr, d.read)
}

// peekWindow returns the buffered bytes, refilling from the underlying
// reader only when fewer than one maximal record's worth are on hand.
// A non-nil error (io.EOF included) means the window cannot grow.
func (d *Decoder) peekWindow() ([]byte, error) {
	if d.br.Buffered() >= maxEncRecordBytes {
		return d.br.Peek(d.br.Buffered())
	}
	w, err := d.br.Peek(decodeBufBytes)
	if len(w) >= maxEncRecordBytes {
		// A full record is available; whether the stream ends after it
		// is the next iteration's question.
		return w, nil
	}
	return w, err
}

// consume discards decoded payload bytes from the buffer (all of them
// just peeked, so Discard cannot fail) and charges them to the current
// segment. For a compressed segment the bytes come from the inflated
// buffer instead; the stored bytes were consumed when the segment was
// entered.
func (d *Decoder) consume(n int) {
	if n == 0 {
		return
	}
	if d.infActive {
		d.infPos += n
		mDecodeBytes.Add(uint64(n))
		return
	}
	d.br.Discard(n)
	mDecodeBytes.Add(uint64(n))
	if d.segmented {
		d.segPay -= uint64(n)
	}
}

// discardSegmentTail skips payload bytes left after the current
// segment's records were all decoded. For a compressed segment the
// stored bytes are already consumed; what remains is to drop the
// inflated tail and surface a short payload the way the raw lane's
// Discard-at-EOF would.
func (d *Decoder) discardSegmentTail() error {
	if d.infActive {
		short := d.infShort
		d.infActive, d.inf, d.infPos, d.infShort = false, nil, 0, false
		if short {
			return fmt.Errorf("trace: segment %d payload: %w", len(d.segs)-1, io.ErrUnexpectedEOF)
		}
		return nil
	}
	for d.segPay > 0 {
		n := d.segPay
		if n > decodeBufBytes {
			n = decodeBufBytes
		}
		k, err := d.br.Discard(int(n))
		d.segPay -= uint64(k)
		if err != nil {
			return fmt.Errorf("trace: segment %d payload: %w", len(d.segs)-1, promisedEOF(err))
		}
	}
	return nil
}

// enterCompressedSegment reads the just-parsed segment's stored payload
// off the stream and inflates it, arming the inf window decodeBatch
// serves from. Truncation is not an error here — the segment decodes as
// far as it goes and the shortfall surfaces, record-indexed, from the
// batch loop — but a corrupt deflate stream in a fully-present payload
// is.
func (d *Decoder) enterCompressedSegment(info SegmentInfo) error {
	stored, short, err := d.readStoredPayload(info)
	if err != nil {
		return err
	}
	data, infShort, err := inflateSegment(info, stored, short, &d.infBuf)
	if err != nil {
		return err
	}
	d.inf, d.infPos, d.infShort, d.infActive = data, 0, infShort, true
	d.segPay = 0
	return nil
}

// readStoredPayload reads the current segment's stored payload (up to
// PayloadBytes bytes) into the decoder's scratch buffer, stopping early
// — without error — if the stream ends first. The buffer grows only as
// bytes actually arrive, so a forged length cannot force a giant
// allocation.
func (d *Decoder) readStoredPayload(info SegmentInfo) (stored []byte, short bool, err error) {
	want := info.PayloadBytes
	buf := d.payBuf[:0]
	for uint64(len(buf)) < want {
		chunk := want - uint64(len(buf))
		if chunk > decodeBufBytes {
			chunk = decodeBufBytes
		}
		need := len(buf) + int(chunk)
		if cap(buf) < need {
			grown := make([]byte, len(buf), max(need, 2*cap(buf)))
			copy(grown, buf)
			buf = grown
		}
		n, rerr := io.ReadFull(d.br, buf[len(buf):need])
		buf = buf[:len(buf)+n]
		if rerr != nil {
			d.payBuf = buf
			if rerr == io.EOF || rerr == io.ErrUnexpectedEOF {
				return buf, true, nil
			}
			return buf, false, fmt.Errorf("trace: segment %d payload: %w", info.Index, rerr)
		}
	}
	d.payBuf = buf
	return buf, false, nil
}
