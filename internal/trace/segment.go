package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
)

// Segment container. ATUM's reserved buffer holds a few seconds of
// execution; long traces are an append-only stream of buffer dumps. The
// segmented container mirrors that: after the stream header (see
// file.go) come zero or more length-prefixed segments, each one
// buffer's worth of records plus the capture-side metadata the OS knew
// at spill time:
//
//	marker  [4]byte  "ASEG"
//	index   uint32   0, 1, 2, ... (strictly sequential)
//	count   uint64   records in this segment
//	dropped uint64   records lost while this segment was being captured
//	cycles  uint64   dilation cycles charged during this segment
//	payLen  uint64   stored payload bytes that follow
//	enc     uint8    payload encoding (SegEncRaw / SegEncFlate)
//	rawLen  uint64   payload bytes after inflation (== payLen for raw
//	                 segments)
//	cpu     uint16   capturing processor id (0 for a serial capture)
//	seq     uint64   global sequence mark (machine-wide spill order,
//	                 from 1, strictly increasing within a stream)
//	payload [payLen]byte   count records in the stream's codec,
//	                       stored per enc
//
// Every field is little endian. Headers are never compressed, so the
// index walk stays header-only. The delta codec's inter-record state
// resets at each segment boundary, so any segment can be decoded
// knowing only the stream codec — and the concatenation of all
// segments' records is byte-identical to the same capture written as
// one segment, whatever each segment's encoding.
//
// The cpu/seq pair is what makes multiprocessor capture mergeable: each
// core spills into its own stream, every spill draws the next value
// from one machine-wide sequence counter, and trace.MergeCPUs later
// interleaves the per-CPU segments back into global spill order by seq
// alone — no cross-core clock needed, exactly the "global sequence
// mark" the roadmap's MP tracing lineage calls for. A serial capture is
// the one-CPU case: CPU 0, marks 1, 2, 3, ...

// segMarker guards each segment header; a payload/payLen mismatch (or
// corrupt payload) desynchronises the stream and is caught here rather
// than silently decoding garbage.
var segMarker = [4]byte{'A', 'S', 'E', 'G'}

// segHeaderBytes is the fixed segment header size after the marker.
const segHeaderBytes = 55

// maxSegPayload bounds one segment's payload length from an untrusted
// header.
const maxSegPayload = maxRecordCount * RecordBytes

// SegmentInfo is the per-segment metadata carried by the segmented
// container.
type SegmentInfo struct {
	Index          uint32
	Records        uint64 // records stored in the segment
	Dropped        uint64 // records lost during the segment's capture interval
	DilationCycles uint64 // dilation cycles charged while capturing it
	PayloadBytes   uint64 // stored payload size (compressed for flate segments)
	Encoding       uint8  // payload encoding (SegEncRaw / SegEncFlate)
	RawBytes       uint64 // payload size after inflation (== PayloadBytes when raw)
	CPU            uint16 // capturing processor (0 for a serial capture)
	Seq            uint64 // global sequence mark (from 1, strictly increasing within a stream)
}

func (s SegmentInfo) String() string {
	base := fmt.Sprintf("segment %d: %d records, %d dropped, %d dilation cycles, %d bytes",
		s.Index, s.Records, s.Dropped, s.DilationCycles, s.PayloadBytes)
	if s.Encoding != SegEncRaw {
		base += fmt.Sprintf(" (%s, %d bytes uncompressed)", EncodingName(s.Encoding), s.RawBytes)
	}
	return base + fmt.Sprintf(" [cpu %d seq %d]", s.CPU, s.Seq)
}

// SegmentWriter appends buffer dumps to a segmented trace stream. The
// stream header is written immediately; each WriteSegment appends one
// length-prefixed segment and flushes, so the output file is a valid
// (if still growing) trace after every spill — a capture killed
// mid-run loses at most the records still in the reserved buffer.
type SegmentWriter struct {
	w       *bufio.Writer
	codec   uint16
	enc     uint8
	next    uint32
	lastSeq uint64       // last mark written (marks must strictly increase)
	packed  []byte       // WriteSegment's packing buffer, reused
	pay     []byte       // per-segment delta encode buffer, reused
	comp    bytes.Buffer // per-segment compression buffer, reused
	closed  bool
	err     error // first write error; sticky

	tee func(StreamSegment) // observes segments after they reach the sink

	hdr [4 + segHeaderBytes]byte // segment header, reused: a local array escapes to the sink
}

// SetEncoding selects the payload encoding for subsequently written
// segments. The default is SegEncRaw. A flate segment that fails to
// shrink below its raw form is stored raw anyway — the flag is a
// per-segment fact, not a stream-wide promise — so enabling compression
// never grows a stream.
func (sw *SegmentWriter) SetEncoding(enc uint8) error {
	if enc > segEncMax {
		return fmt.Errorf("trace: unknown payload encoding %d", enc)
	}
	sw.enc = enc
	return nil
}

// Tee arranges for fn to observe every subsequently written segment,
// invoked after the segment has reached the sink — so fn only ever sees
// data a re-read of the file would also see. The StreamSegment's
// payload aliases the writer's reusable encode buffer (or, for a raw
// segment written with WritePacked, the caller's packed bytes) and is
// valid only during the call; fn must decode or copy before returning.
// The tee is observational: its behaviour never affects the stream, and
// a slow fn only delays the writer (the capture side already freezes
// the machine during a spill, so the delay costs no simulated time).
func (sw *SegmentWriter) Tee(fn func(StreamSegment)) { sw.tee = fn }

// NewSegmentWriter writes the segmented stream header to w and returns
// the writer positioned for the first segment.
func NewSegmentWriter(w io.Writer, codec uint16, meta string) (*SegmentWriter, error) {
	if codec != CodecRaw && codec != CodecDelta {
		return nil, fmt.Errorf("trace: unknown codec %d", codec)
	}
	if len(meta) > maxMetaLen {
		return nil, fmt.Errorf("trace: metadata too long (%d bytes)", len(meta))
	}
	sw := &SegmentWriter{w: bufio.NewWriter(w), codec: codec}
	if _, err := sw.w.Write(segMagic[:]); err != nil {
		return nil, err
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint16(hdr[0:], segVersion)
	binary.LittleEndian.PutUint16(hdr[2:], codec)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(meta)))
	if _, err := sw.w.Write(hdr[:]); err != nil {
		return nil, err
	}
	if _, err := sw.w.WriteString(meta); err != nil {
		return nil, err
	}
	if err := sw.w.Flush(); err != nil {
		return nil, err
	}
	return sw, nil
}

// WriteSegment appends one buffer dump and flushes it to the sink,
// returning the header it wrote (stored and uncompressed sizes, the
// encoding actually used). Of stamp only the capture-side fields are
// read: Dropped, DilationCycles, CPU and Seq. Seq is the segment's
// global sequence mark and must exceed the previous segment's; zero
// means one past it, so a serial writer numbers its segments 1, 2, 3,
// ... without a counter. Empty segments are legal (a spill can race an
// already-drained buffer) and always stored raw. Errors are sticky:
// once the sink fails, every later call reports the same error so a
// capture loop can fall back to counted-drop mode.
func (sw *SegmentWriter) WriteSegment(recs []Word, stamp SegmentInfo) (SegmentInfo, error) {
	// Laid out little endian, the words are the packed bytes.
	sw.packed = slices.Grow(sw.packed[:0], len(recs)*RecordBytes)[:len(recs)*RecordBytes]
	for i, w := range recs {
		binary.LittleEndian.PutUint64(sw.packed[i*RecordBytes:], uint64(w))
	}
	return sw.WritePacked(sw.packed, stamp)
}

// WritePacked is WriteSegment for records already in the packed layout
// the collector's trace store writes — a buffer dump as it sits in
// reserved memory. packed must hold whole records; the writer reads it
// only during the call.
func (sw *SegmentWriter) WritePacked(packed []byte, stamp SegmentInfo) (SegmentInfo, error) {
	if sw.err != nil {
		return SegmentInfo{}, sw.err
	}
	if sw.closed {
		return SegmentInfo{}, fmt.Errorf("trace: segment writer closed")
	}
	if len(packed)%RecordBytes != 0 {
		return SegmentInfo{}, fmt.Errorf("trace: packed segment length %d not a record multiple", len(packed))
	}
	// Encode to memory first: payLen must precede the payload, and a
	// sink error mid-segment must not leave a half-written segment
	// unaccounted for.
	raw := packed // the raw codec's payload is the packed records
	if sw.codec == CodecDelta {
		sw.pay = appendDelta(sw.pay[:0], packed)
		raw = sw.pay
	}
	enc := SegEncRaw
	stored := raw
	if sw.enc == SegEncFlate && len(raw) > 0 {
		sw.comp.Reset()
		if err := deflateInto(&sw.comp, raw); err != nil {
			return SegmentInfo{}, err
		}
		if sw.comp.Len() < len(raw) {
			enc, stored = SegEncFlate, sw.comp.Bytes()
		}
	}
	return sw.writeFrame(SegmentInfo{
		Records:        uint64(len(packed) / RecordBytes),
		Dropped:        stamp.Dropped,
		DilationCycles: stamp.DilationCycles,
		Encoding:       enc,
		RawBytes:       uint64(len(raw)),
		CPU:            stamp.CPU,
		Seq:            stamp.Seq,
	}, stored)
}

// writeFrame appends one segment: a header framed at the writer's next
// index, then the stored payload unchanged. It flushes the segment to
// the sink and then hands it to the tee. info supplies every other
// header field but PayloadBytes, which is len(stored). A zero Seq means
// one past the previous mark; any other Seq must exceed it. Callers
// check the sticky error and Close first.
func (sw *SegmentWriter) writeFrame(info SegmentInfo, stored []byte) (SegmentInfo, error) {
	if info.Seq == 0 {
		info.Seq = sw.lastSeq + 1
	} else if info.Seq <= sw.lastSeq {
		return SegmentInfo{}, fmt.Errorf("trace: sequence mark %d not above previous %d", info.Seq, sw.lastSeq)
	}
	info.Index = sw.next
	info.PayloadBytes = uint64(len(stored))
	hdr := sw.hdr[:]
	copy(hdr[:4], segMarker[:])
	binary.LittleEndian.PutUint32(hdr[4:], info.Index)
	binary.LittleEndian.PutUint64(hdr[8:], info.Records)
	binary.LittleEndian.PutUint64(hdr[16:], info.Dropped)
	binary.LittleEndian.PutUint64(hdr[24:], info.DilationCycles)
	binary.LittleEndian.PutUint64(hdr[32:], info.PayloadBytes)
	hdr[40] = info.Encoding
	binary.LittleEndian.PutUint64(hdr[41:], info.RawBytes)
	binary.LittleEndian.PutUint16(hdr[49:], info.CPU)
	binary.LittleEndian.PutUint64(hdr[51:], info.Seq)
	if _, err := sw.w.Write(hdr); err != nil {
		return SegmentInfo{}, sw.fail(err)
	}
	if _, err := sw.w.Write(stored); err != nil {
		return SegmentInfo{}, sw.fail(err)
	}
	if err := sw.w.Flush(); err != nil {
		return SegmentInfo{}, sw.fail(err)
	}
	if sw.tee != nil {
		sw.tee(StreamSegment{Codec: sw.codec, Info: info, Payload: stored})
	}
	sw.next++
	sw.lastSeq = info.Seq
	return info, nil
}

func (sw *SegmentWriter) fail(err error) error {
	sw.err = err
	return err
}

// Segments returns how many segments have been written.
func (sw *SegmentWriter) Segments() uint32 { return sw.next }

// Err returns the sticky sink error, if any.
func (sw *SegmentWriter) Err() error { return sw.err }

// Close flushes the stream. The container is append-only, so there is
// no trailer to write; Close exists to surface buffered sink errors and
// to fence off further writes.
func (sw *SegmentWriter) Close() error {
	if sw.closed {
		return sw.err
	}
	sw.closed = true
	if sw.err != nil {
		return sw.err
	}
	return sw.w.Flush()
}

// parseSegmentHeader decodes and validates the fixed fields after the
// "ASEG" marker. Both readers reach it through headerWalk.next, which
// also checks the sequence marks' order.
func parseSegmentHeader(hdr []byte, at int, codec uint16) (SegmentInfo, error) {
	info := SegmentInfo{
		Index:          binary.LittleEndian.Uint32(hdr[0:]),
		Records:        binary.LittleEndian.Uint64(hdr[4:]),
		Dropped:        binary.LittleEndian.Uint64(hdr[12:]),
		DilationCycles: binary.LittleEndian.Uint64(hdr[20:]),
		PayloadBytes:   binary.LittleEndian.Uint64(hdr[28:]),
		Encoding:       hdr[36],
		RawBytes:       binary.LittleEndian.Uint64(hdr[37:]),
		CPU:            binary.LittleEndian.Uint16(hdr[45:]),
		Seq:            binary.LittleEndian.Uint64(hdr[47:]),
	}
	if info.Encoding == SegEncRaw {
		// The raw payload IS the codec stream; rawLen is informational
		// there, so normalise rather than trusting a field with nothing
		// to say.
		info.RawBytes = info.PayloadBytes
	}
	if info.Index != uint32(at) {
		return info, fmt.Errorf("trace: segment %d: out-of-order index %d", at, info.Index)
	}
	if info.Encoding > segEncMax {
		return info, fmt.Errorf("trace: segment %d: unknown payload encoding %d", info.Index, info.Encoding)
	}
	if info.Records > maxRecordCount {
		return info, fmt.Errorf("trace: segment %d: implausible record count %d", info.Index, info.Records)
	}
	if info.PayloadBytes > maxSegPayload {
		return info, fmt.Errorf("trace: segment %d: implausible payload length %d", info.Index, info.PayloadBytes)
	}
	if info.RawBytes > maxSegPayload {
		return info, fmt.Errorf("trace: segment %d: implausible uncompressed length %d", info.Index, info.RawBytes)
	}
	if codec == CodecRaw && info.RawBytes != info.Records*RecordBytes {
		return info, fmt.Errorf("trace: segment %d: payload length %d does not match %d raw records",
			info.Index, info.RawBytes, info.Records)
	}
	return info, nil
}
