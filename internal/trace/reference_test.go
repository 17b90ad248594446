package trace

import (
	"bufio"
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
// oracle for the decode-equivalence tests: three implementations now
// agree on every stream, two of which share no scanning code.
//
// It also keeps the two []Record encoders the writers used before every
// encode went through the packed layout (encode.go). They build each
// codec's bytes field by field from a Record, so they are an oracle the
// packed encoders share no code with.

type referenceDecoder struct {
	br        *bufio.Reader
	codec     uint16
	count     uint64
	read      uint64
	segmented bool
	segs      int
	lastAddr  [NumKinds]uint32
	lastPID   uint8
}

// referenceReadAll decodes a whole stream with the per-record reference
// path.
func referenceReadAll(r io.Reader) ([]Record, error) {
	d := &referenceDecoder{br: bufio.NewReader(r)}
	var m [8]byte
	if _, err := io.ReadFull(d.br, m[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	var metaLen uint32
	switch m {
	case magic:
		var hdr [16]byte
		if _, err := io.ReadFull(d.br, hdr[:]); err != nil {
			return nil, fmt.Errorf("trace: reading header: %w", err)
		}
		d.codec = binary.LittleEndian.Uint16(hdr[2:])
		d.count = binary.LittleEndian.Uint64(hdr[4:])
		metaLen = binary.LittleEndian.Uint32(hdr[12:])
	case segMagic:
		var hdr [8]byte
		if _, err := io.ReadFull(d.br, hdr[:]); err != nil {
			return nil, fmt.Errorf("trace: reading segment-stream header: %w", err)
		}
		d.codec = binary.LittleEndian.Uint16(hdr[2:])
		metaLen = binary.LittleEndian.Uint32(hdr[4:])
		d.segmented = true
	default:
		return nil, fmt.Errorf("trace: bad magic %q", m)
	}
	if d.count > maxRecordCount || metaLen > maxMetaLen {
		return nil, fmt.Errorf("trace: implausible header")
	}
	if _, err := io.CopyN(io.Discard, d.br, int64(metaLen)); err != nil {
		return nil, fmt.Errorf("trace: reading metadata: %w", promisedEOF(err))
	}
	var recs []Record
	for {
		if d.read == d.count {
			if !d.segmented {
				return recs, nil
			}
			err := d.refNextSegment()
			if err == io.EOF {
				return recs, nil
			}
			if err != nil {
				return nil, err
			}
			continue
		}
		rec, err := d.refDecodeOne()
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
	}
}

func (d *referenceDecoder) refNextSegment() error {
	var mk [4]byte
	if _, err := io.ReadFull(d.br, mk[:]); err != nil {
		if err == io.EOF {
			return io.EOF
		}
		return fmt.Errorf("trace: segment %d header: %w", d.segs, promisedEOF(err))
	}
	if mk != segMarker {
		return fmt.Errorf("trace: segment %d: bad marker %q", d.segs, mk)
	}
	var hdr [segHeaderBytes]byte
	if _, err := io.ReadFull(d.br, hdr[:]); err != nil {
		return fmt.Errorf("trace: segment %d header: %w", d.segs, promisedEOF(err))
	}
	info, err := parseSegmentHeader(hdr[:], d.segs, d.codec)
	if err != nil {
		return err
	}
	d.segs++
	d.count += info.Records
	d.lastAddr = [NumKinds]uint32{}
	d.lastPID = 0
	return nil
}

func (d *referenceDecoder) refDecodeOne() (Record, error) {
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
