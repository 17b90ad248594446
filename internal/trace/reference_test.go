package trace

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
)

// byteWriter is the sink the reference encoders write to; both
// bufio.Writer and bytes.Buffer satisfy it.
type byteWriter interface {
	io.Writer
	WriteByte(byte) error
}

// fields is one record as separate values. The reference encoders
// build each codec's bytes from them field by field, sharing no code
// with Pack, and a marker keeps whatever width it was given.
type fields struct {
	kind  Kind
	addr  uint32
	width uint8
	pid   uint8
	user  bool
	phys  bool
	extra uint16
}

// word packs f.
func (f fields) word() Word { return Pack(f.kind, f.addr, f.width, f.pid, f.user, f.phys, f.extra) }

// refByte0 builds byte 0 of the packed layout (and of the delta
// header, reserved bit clear).
func refByte0(f fields) byte {
	var wl byte
	switch f.width {
	case 2:
		wl = 1
	case 4:
		wl = 2
	case 8:
		wl = 3
	}
	b := byte(f.kind)&7 | wl<<3
	if f.user {
		b |= 1 << 5
	}
	if f.phys {
		b |= 1 << 6
	}
	return b
}

func writeRaw(w byteWriter, recs []fields) error {
	var b [RecordBytes]byte
	for _, r := range recs {
		b[0] = refByte0(r)
		b[1] = r.pid
		binary.LittleEndian.PutUint16(b[2:], r.extra)
		binary.LittleEndian.PutUint32(b[4:], r.addr)
		if _, err := w.Write(b[:]); err != nil {
			return err
		}
	}
	return nil
}

func writeDelta(w byteWriter, recs []fields) error {
	var lastAddr [NumKinds]uint32
	lastPID := uint8(0)
	var buf [binary.MaxVarintLen64]byte
	for _, r := range recs {
		h := refByte0(r)
		if r.pid != lastPID {
			h |= deltaPIDChanged
		}
		if err := w.WriteByte(h); err != nil {
			return err
		}
		if r.pid != lastPID {
			if err := w.WriteByte(r.pid); err != nil {
				return err
			}
			lastPID = r.pid
		}
		delta := int64(r.addr) - int64(lastAddr[r.kind])
		n := binary.PutVarint(buf[:], delta)
		if _, err := w.Write(buf[:n]); err != nil {
			return err
		}
		lastAddr[r.kind] = r.addr
		if r.kind == KindCtxSwitch || r.kind == KindException {
			n = binary.PutUvarint(buf[:], uint64(r.extra))
			if _, err := w.Write(buf[:n]); err != nil {
				return err
			}
		}
	}
	return nil
}

// refHeaderFields reads kind, width, user and phys out of a packed byte
// 0 (or a delta header byte). A marker has no reference width.
func refHeaderFields(b0 byte) fields {
	f := fields{kind: Kind(b0 & 7), user: b0&(1<<5) != 0, phys: b0&(1<<6) != 0}
	if f.kind.IsMemRef() {
		f.width = 1 << (b0 >> 3 & 3)
	}
	return f
}

// refRawWord decodes one packed record field by field: Pack of what the
// bytes say, with the reserved bit and a marker's width ignored.
func refRawWord(b []byte) Word {
	f := refHeaderFields(b[0])
	f.pid = b[1]
	f.extra = binary.LittleEndian.Uint16(b[2:])
	f.addr = binary.LittleEndian.Uint32(b[4:])
	return f.word()
}

// This file preserves the pre-batch decoder — one record at a time
// through bufio.Reader, per-byte varint reads, per-record error
// wrapping — as a test-only artifact. It is the benchmark baseline the
// batch path is measured against (BENCH_decode.json) and an independent
// oracle for the decode-equivalence tests: it shares no scanning code
// with DecodeSegment, and it inflates compressed segments with
// compress/flate directly rather than through the pooled inflater.
//
// It also keeps two reference encoders that build each codec's bytes
// field by field (writeRaw, writeDelta), and decodes each record into
// fields before packing it, so it is an oracle the packed encoders and
// the word decoders share no layout code with.

type refStream struct {
	br       *bufio.Reader // current segment's codec bytes
	codec    uint16
	read     uint64
	lastAddr [NumKinds]uint32
	lastPID  uint8
}

// referenceReadAll decodes a whole segmented stream with the
// per-record reference path. Its errors are worded like the batch
// path's for truncated payloads, but it is an oracle for successful
// decodes only: header validation is the shared parseSegmentHeader.
func referenceReadAll(r io.Reader) ([]Word, error) {
	in := bufio.NewReader(r)
	var m [8]byte
	if _, err := io.ReadFull(in, m[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if m != segMagic {
		return nil, fmt.Errorf("trace: bad magic %q", m)
	}
	var hdr [8]byte
	if _, err := io.ReadFull(in, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: reading segment-stream header: %w", promisedEOF(err))
	}
	d := &refStream{codec: binary.LittleEndian.Uint16(hdr[2:])}
	metaLen := binary.LittleEndian.Uint32(hdr[4:])
	if metaLen > maxMetaLen {
		return nil, fmt.Errorf("trace: implausible header")
	}
	if _, err := io.CopyN(io.Discard, in, int64(metaLen)); err != nil {
		return nil, fmt.Errorf("trace: reading metadata: %w", promisedEOF(err))
	}
	var recs []Word
	for seg := 0; ; seg++ {
		sh := make([]byte, 4+segHeaderBytes)
		if _, err := io.ReadFull(in, sh); err != nil {
			if err == io.EOF {
				return recs, nil
			}
			return nil, fmt.Errorf("trace: segment %d header: %w", seg, err)
		}
		if [4]byte(sh[:4]) != segMarker {
			return nil, fmt.Errorf("trace: segment %d: bad marker %q", seg, sh[:4])
		}
		info, err := parseSegmentHeader(sh[4:], seg, d.codec)
		if err != nil {
			return nil, err
		}
		stored := &io.LimitedReader{R: in, N: int64(info.PayloadBytes)}
		var codecBytes io.Reader = stored
		if info.Encoding == SegEncFlate {
			var inflated bytes.Buffer
			if n, _ := io.CopyN(&inflated, flate.NewReader(stored), int64(info.RawBytes)); uint64(n) < info.RawBytes {
				return nil, fmt.Errorf("trace: segment %d payload: inflates to %d of %d bytes", seg, n, info.RawBytes)
			}
			codecBytes = &inflated
		}
		// Segments are independently encoded: the delta state resets.
		d.br = bufio.NewReader(codecBytes)
		d.lastAddr, d.lastPID = [NumKinds]uint32{}, 0
		for i := uint64(0); i < info.Records; i++ {
			rec, err := d.refDecodeOne()
			if err != nil {
				return nil, err
			}
			recs = append(recs, rec)
		}
		// The framing, not the records, says where the segment ends.
		if _, err := io.Copy(io.Discard, stored); err != nil {
			return nil, err
		}
		if stored.N != 0 {
			return nil, fmt.Errorf("trace: segment %d payload: %w", seg, io.ErrUnexpectedEOF)
		}
	}
}

func (d *refStream) refDecodeOne() (Word, error) {
	i := d.read
	if d.codec == CodecRaw {
		var b [RecordBytes]byte
		if _, err := io.ReadFull(d.br, b[:]); err != nil {
			return 0, fmt.Errorf("trace: record %d: %w", i, promisedEOF(err))
		}
		if k := b[0] & 7; k >= byte(NumKinds) {
			return 0, fmt.Errorf("trace: record %d: invalid kind %d", i, k)
		}
		d.read++
		return refRawWord(b[:]), nil
	}
	h, err := d.br.ReadByte()
	if err != nil {
		return 0, fmt.Errorf("trace: record %d: %w", i, promisedEOF(err))
	}
	f := refHeaderFields(h)
	if f.kind >= NumKinds {
		return 0, fmt.Errorf("trace: record %d: invalid kind %d", i, h&7)
	}
	if h&deltaPIDChanged != 0 {
		p, err := d.br.ReadByte()
		if err != nil {
			return 0, fmt.Errorf("trace: record %d pid: %w", i, promisedEOF(err))
		}
		d.lastPID = p
	}
	f.pid = d.lastPID
	delta, err := binary.ReadVarint(d.br)
	if err != nil {
		return 0, fmt.Errorf("trace: record %d addr: %w", i, promisedEOF(err))
	}
	f.addr = uint32(int64(d.lastAddr[f.kind]) + delta)
	d.lastAddr[f.kind] = f.addr
	if f.kind == KindCtxSwitch || f.kind == KindException {
		x, err := binary.ReadUvarint(d.br)
		if err != nil {
			return 0, fmt.Errorf("trace: record %d extra: %w", i, promisedEOF(err))
		}
		f.extra = uint16(x)
	}
	d.read++
	return f.word(), nil
}
