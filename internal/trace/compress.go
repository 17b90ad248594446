package trace

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"sync"
	"time"
)

// Per-segment payload encodings (the enc byte of every segment header;
// see segment.go). The codec field picks
// how records become bytes (raw or delta); the encoding byte picks how
// those bytes are stored in the segment. The two compose: a flate
// segment holds the deflated codec stream, and rawLen in the header
// declares how many codec bytes it inflates back to. Headers are never
// encoded, so the segment index stays seekable without inflating a
// single payload byte.
//
// The flag is a full byte so later encodings — an ETM-style
// atom/address-register codec, say — slot in as new values without
// another container revision; readers reject values they do not know.
const (
	SegEncRaw   uint8 = 0 // payload stored exactly as the codec emitted it
	SegEncFlate uint8 = 1 // payload deflated (RFC 1951) after codec encoding

	segEncMax = SegEncFlate
)

// EncodingName renders a payload encoding for tools (atum-stats).
func EncodingName(enc uint8) string {
	switch enc {
	case SegEncRaw:
		return "raw"
	case SegEncFlate:
		return "flate"
	}
	return fmt.Sprintf("enc%d", enc)
}

// spillFlateLevel is the writer's compression level. The spill path
// runs with the machine frozen, so compression time is capture-visible
// dilation: BestSpeed already shrinks the delta stream several-fold
// (the structure-aware codec has done the hard work) and higher levels
// buy little for triple the CPU.
const spillFlateLevel = flate.BestSpeed

// flateWriterPool recycles deflaters across segments and writers; a
// flate.Writer carries large internal tables that would otherwise be
// reallocated per spill.
var flateWriterPool = sync.Pool{
	New: func() any {
		w, _ := flate.NewWriter(io.Discard, spillFlateLevel)
		return w
	},
}

// deflateInto compresses src into dst (which the caller has reset).
func deflateInto(dst *bytes.Buffer, src []byte) error {
	fw := flateWriterPool.Get().(*flate.Writer)
	defer flateWriterPool.Put(fw)
	fw.Reset(dst)
	if _, err := fw.Write(src); err != nil {
		return err
	}
	return fw.Close()
}

// inflater pairs a pooled flate reader with the bytes.Reader it resets
// onto, so steady-state inflation allocates nothing.
type inflater struct {
	src bytes.Reader
	fr  io.ReadCloser
}

var inflaterPool = sync.Pool{
	New: func() any {
		inf := &inflater{}
		inf.fr = flate.NewReader(&inf.src)
		return inf
	},
}

// infBufPool recycles inflated-payload buffers across segment decodes,
// the compressed-lane counterpart of payBufPool.
var infBufPool = sync.Pool{New: func() any { return new([]byte) }}

// inflateChunk bounds how much inflateSegment grows its output per
// read, so a forged rawLen cannot force a giant up-front allocation —
// memory grows only as fast as the deflate stream actually produces
// bytes.
const inflateChunk = 64 << 10

// inflateSegment decodes a segment's stored payload back into codec
// bytes. stored is what the container actually holds (possibly cut
// short of PayloadBytes: storedShort); the result aliases *buf, which
// is grown as needed and handed back for reuse. Output is capped at the
// header's RawBytes — whether the deflate stream agrees with that
// declaration is the container lint's question (LintSegRawLen), not a
// decode error.
//
// short reports that the inflated bytes fall short of RawBytes: the
// stored payload was truncated, or the deflate stream ended (or failed)
// early. A deflate error in a fully-present payload is instead a hard
// error.
func inflateSegment(info SegmentInfo, stored []byte, storedShort bool, buf *[]byte) (data []byte, short bool, err error) {
	if info.Encoding != SegEncFlate {
		return nil, false, fmt.Errorf("trace: segment %d: unknown payload encoding %d", info.Index, info.Encoding)
	}
	start := time.Now()
	defer func() { mDecodeInflateSecs.Observe(time.Since(start).Seconds()) }()

	inf := inflaterPool.Get().(*inflater)
	defer inflaterPool.Put(inf)
	inf.src.Reset(stored)
	if err := inf.fr.(flate.Resetter).Reset(&inf.src, nil); err != nil {
		return nil, false, fmt.Errorf("trace: segment %d payload: inflate: %v", info.Index, err)
	}

	want := info.RawBytes
	out := (*buf)[:0]
	var ferr error
	for uint64(len(out)) < want && ferr == nil {
		chunk := want - uint64(len(out))
		if chunk > inflateChunk {
			chunk = inflateChunk
		}
		need := len(out) + int(chunk)
		if cap(out) < need {
			grown := make([]byte, len(out), max(need, 2*cap(out)))
			copy(grown, out)
			out = grown
		}
		var n int
		n, ferr = inf.fr.Read(out[len(out):need])
		out = out[:len(out)+n]
	}
	*buf = out
	switch {
	case uint64(len(out)) == want:
		// Everything the header promised arrived; the stored payload may
		// still be short of its own framing, which the caller's framing
		// check reports.
		return out, storedShort, nil
	case ferr == io.EOF || ferr == io.ErrUnexpectedEOF:
		return out, true, nil
	case storedShort:
		// A deflate stream cut off mid-block can fail arbitrarily; the
		// truncation explains it, so report it as such rather than as
		// corruption.
		return out, true, nil
	default:
		return nil, false, fmt.Errorf("trace: segment %d payload: inflate: %v", info.Index, ferr)
	}
}

// inflatedLen inflates stored completely and returns the output byte
// count, for checking a header's RawBytes declaration. The count is
// clamped just past the container's payload bound so a deflate bomb
// cannot run away.
func inflatedLen(stored []byte) (uint64, error) {
	inf := inflaterPool.Get().(*inflater)
	defer inflaterPool.Put(inf)
	inf.src.Reset(stored)
	if err := inf.fr.(flate.Resetter).Reset(&inf.src, nil); err != nil {
		return 0, err
	}
	var total uint64
	var scratch [inflateChunk]byte
	for total <= maxSegPayload {
		n, err := inf.fr.Read(scratch[:])
		total += uint64(n)
		if err == io.EOF {
			return total, nil
		}
		if err != nil {
			return total, err
		}
	}
	return total, nil
}
