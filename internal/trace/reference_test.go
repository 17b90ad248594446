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

func writeRaw(w byteWriter, recs []Record) error {
	var b [RecordBytes]byte
	for _, r := range recs {
		var wl byte
		switch r.Width {
		case 2:
			wl = 1
		case 4:
			wl = 2
		}
		b[0] = byte(r.Kind)&7 | wl<<3
		if r.User {
			b[0] |= flagUser
		}
		if r.Phys {
			b[0] |= flagPhys
		}
		b[1] = r.PID
		binary.LittleEndian.PutUint16(b[2:], r.Extra)
		binary.LittleEndian.PutUint32(b[4:], r.Addr)
		if _, err := w.Write(b[:]); err != nil {
			return err
		}
	}
	return nil
}

func writeDelta(w byteWriter, recs []Record) error {
	var lastAddr [NumKinds]uint32
	lastPID := uint8(0)
	var buf [binary.MaxVarintLen64]byte
	for _, r := range recs {
		var wl byte
		switch r.Width {
		case 2:
			wl = 1
		case 4:
			wl = 2
		}
		h := byte(r.Kind)&7 | wl<<3
		if r.User {
			h |= flagUser
		}
		if r.Phys {
			h |= flagPhys
		}
		if r.PID != lastPID {
			h |= deltaPIDChanged
		}
		if err := w.WriteByte(h); err != nil {
			return err
		}
		if r.PID != lastPID {
			if err := w.WriteByte(r.PID); err != nil {
				return err
			}
			lastPID = r.PID
		}
		delta := int64(r.Addr) - int64(lastAddr[r.Kind])
		n := binary.PutVarint(buf[:], delta)
		if _, err := w.Write(buf[:n]); err != nil {
			return err
		}
		lastAddr[r.Kind] = r.Addr
		if r.Kind == KindCtxSwitch || r.Kind == KindException {
			n = binary.PutUvarint(buf[:], uint64(r.Extra))
			if _, err := w.Write(buf[:n]); err != nil {
				return err
			}
		}
	}
	return nil
}

// This file preserves the pre-batch decoder — one record at a time
// through bufio.Reader, per-byte varint reads, per-record error
// wrapping — as a test-only artifact. It is the benchmark baseline the
// batch path is measured against (BENCH_decode.json) and an independent
// oracle for the decode-equivalence tests: it shares no scanning code
// with DecodeSegment, and it inflates compressed segments with
// compress/flate directly rather than through the pooled inflater.
//
// It also keeps the two []Record encoders the writers used before every
// encode went through the packed layout (encode.go). They build each
// codec's bytes field by field from a Record, so they are an oracle the
// packed encoders share no code with.

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
func referenceReadAll(r io.Reader) ([]Record, error) {
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
	var recs []Record
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

func (d *refStream) refDecodeOne() (Record, error) {
	i := d.read
	if d.codec == CodecRaw {
		var b [RecordBytes]byte
		if _, err := io.ReadFull(d.br, b[:]); err != nil {
			return Record{}, fmt.Errorf("trace: record %d: %w", i, promisedEOF(err))
		}
		if k := b[0] & 7; k >= byte(NumKinds) {
			return Record{}, fmt.Errorf("trace: record %d: invalid kind %d", i, k)
		}
		d.read++
		return DecodeRecord(b[:]), nil
	}
	h, err := d.br.ReadByte()
	if err != nil {
		return Record{}, fmt.Errorf("trace: record %d: %w", i, promisedEOF(err))
	}
	k := Kind(h & 7)
	if k >= NumKinds {
		return Record{}, fmt.Errorf("trace: record %d: invalid kind %d", i, h&7)
	}
	rec := Record{Kind: k, User: h&flagUser != 0, Phys: h&flagPhys != 0}
	if k.IsMemRef() {
		rec.Width = 1 << (h >> 3 & 3)
	}
	if h&deltaPIDChanged != 0 {
		p, err := d.br.ReadByte()
		if err != nil {
			return Record{}, fmt.Errorf("trace: record %d pid: %w", i, promisedEOF(err))
		}
		d.lastPID = p
	}
	rec.PID = d.lastPID
	delta, err := binary.ReadVarint(d.br)
	if err != nil {
		return Record{}, fmt.Errorf("trace: record %d addr: %w", i, promisedEOF(err))
	}
	rec.Addr = uint32(int64(d.lastAddr[rec.Kind]) + delta)
	d.lastAddr[rec.Kind] = rec.Addr
	if rec.Kind == KindCtxSwitch || rec.Kind == KindException {
		x, err := binary.ReadUvarint(d.br)
		if err != nil {
			return Record{}, fmt.Errorf("trace: record %d extra: %w", i, promisedEOF(err))
		}
		rec.Extra = uint16(x)
	}
	d.read++
	return rec, nil
}
