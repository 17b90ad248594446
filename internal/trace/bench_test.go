package trace

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// makeBenchTrace synthesises a workload-shaped trace for the decode and
// capture benchmarks: four processes round-robin on a timer quantum,
// each alternating tight loop phases (strided ifetches with data and
// stack references) with irregular pointer-chasing phases, plus
// occasional PTE references. Unlike makeTrace's random walk, this has
// the regularity real captures have — repeated loop bodies, sequential
// data streams — which is exactly the structure the delta codec and the
// flate segment encoding exploit, so compression ratios measured here
// transfer to real captures (a sieve capture compresses harder still).
func makeBenchTrace(n, seed int) []Word {
	r := rand.New(rand.NewSource(int64(seed)))
	type proc struct{ pc, data, sp uint32 }
	procs := []proc{
		{0x0400, 0x00010000, 0x7FFFF000},
		{0x2400, 0x00050000, 0x7FFFE000},
		{0x4400, 0x00090000, 0x7FFFD000},
		{0x6400, 0x000D0000, 0x7FFFC000},
	}
	recs := make([]Word, 0, n)
	cur := 0
	quantum := 0
	for len(recs) < n {
		if quantum <= 0 {
			cur = (cur + 1) % len(procs)
			quantum = 1500 + r.Intn(1000)
			recs = append(recs, Pack(KindCtxSwitch, 0, 0, uint8(cur), false, false, uint16(cur)))
			continue
		}
		p := &procs[cur]
		pid := uint8(cur)
		if r.Intn(3) == 0 {
			// Irregular phase: short forward strides over code, scattered
			// reads from a large working set.
			for k := 0; k < 200 && len(recs) < n; k++ {
				p.pc += uint32(r.Intn(3)) * 4
				recs = append(recs, Pack(KindIFetch, p.pc, 4, pid, true, false, 0))
				if k%3 == 1 {
					addr := 0x00100000 + uint32(r.Intn(1<<18))&^uint32(3)
					recs = append(recs, Pack(KindDRead, addr, 4, pid, true, false, 0))
				}
				quantum--
			}
		} else {
			// Loop phase: the same body re-executed, walking a data stream
			// and touching the stack.
			body := 8 + r.Intn(32)
			iters := 4 + r.Intn(12)
			start := p.pc
			for it := 0; it < iters && len(recs) < n; it++ {
				p.pc = start
				for bi := 0; bi < body && len(recs) < n; bi++ {
					recs = append(recs, Pack(KindIFetch, p.pc, 4, pid, true, false, 0))
					p.pc += 4
					switch bi % 5 {
					case 1:
						recs = append(recs, Pack(KindDRead, p.data, 4, pid, true, false, 0))
						p.data += 4
					case 3:
						recs = append(recs, Pack(KindDWrite, p.sp-uint32(bi), 4, pid, true, false, 0))
					}
					quantum--
				}
			}
			p.pc = start + uint32(body)*4
		}
		if r.Intn(20) == 0 {
			recs = append(recs, Pack(KindPTERead, 0x80010000+(p.data>>9)&^uint32(3), 4, pid, false, false, 0))
		}
	}
	return recs[:n]
}

func BenchmarkEncodeRaw(b *testing.B) {
	recs := makeTrace(100_000, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteFile(io.Discard, recs, CodecRaw); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(recs) * RecordBytes))
}

func BenchmarkEncodeDelta(b *testing.B) {
	recs := makeTrace(100_000, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteFile(io.Discard, recs, CodecDelta); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(recs) * RecordBytes))
}

// benchStream encodes recs as a segmented stream of nseg segments with
// the given payload encoding (the shape the spill service writes).
func benchStream(b *testing.B, recs []Word, nseg int, codec uint16, enc uint8) []byte {
	b.Helper()
	var buf bytes.Buffer
	sw, err := NewSegmentWriter(&buf, codec, "bench")
	if err != nil {
		b.Fatal(err)
	}
	if err := sw.SetEncoding(enc); err != nil {
		b.Fatal(err)
	}
	n := len(recs)
	per := (n + nseg - 1) / nseg
	for lo := 0; lo < n; lo += per {
		hi := lo + per
		if hi > n {
			hi = n
		}
		if _, err := sw.WriteSegment(recs[lo:hi], SegmentInfo{}); err != nil {
			b.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

// decodeJSON, when set, makes BenchmarkDecodeSegmented record its
// reference / serial-batch / parallel lane numbers (BENCH_decode.json).
// From the repo root:
//
//	go test -C internal/trace -bench=DecodeSegmented -benchtime=10x -run '^$' -decode-json=../../BENCH_decode.json
var decodeJSON = flag.String("decode-json", "", "write decode benchmark results to this JSON file")

// decodeLane runs one full-stream decode and reports wall time plus
// heap allocations.
func decodeLane(b *testing.B, fn func() int) (sec float64, allocs uint64, nrec int) {
	b.Helper()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	nrec = fn()
	sec = time.Since(t0).Seconds()
	runtime.ReadMemStats(&m1)
	return sec, m1.Mallocs - m0.Mallocs, nrec
}

// BenchmarkDecodeSegmented measures the segmented delta decode five
// ways on the same records — the preserved PR 3 per-record path, the
// serial batch path (workers == 1), the parallel batch path (4
// workers), the flate-encoded stream (per-segment deflate, parallel decode
// pays the inflate), and the memory-mapped zero-copy lane
// (OpenFileMapped + SegmentPayload + DecodeSegment) — verifying
// record-identical output while timing, and optionally records the
// lanes to BENCH_decode.json. Two gates run every time: the flate
// stream must hold at least 2x fewer bytes per record than the raw
// one, and the mapped lane must not allocate per record.
func BenchmarkDecodeSegmented(b *testing.B) {
	const nrec = 400_000
	const nseg = 32
	recs := makeBenchTrace(nrec, 5)
	data := benchStream(b, recs, nseg, CodecDelta, SegEncRaw)
	flateData := benchStream(b, recs, nseg, CodecDelta, SegEncFlate)
	if len(data) < 2*len(flateData) {
		b.Fatalf("flate stream %d bytes vs raw %d: below the 2x compression gate", len(flateData), len(data))
	}
	mmapPath := filepath.Join(b.TempDir(), "bench.trc")
	if err := os.WriteFile(mmapPath, data, 0o644); err != nil {
		b.Fatal(err)
	}
	mf, err := OpenFileMapped(mmapPath)
	if err != nil {
		b.Fatal(err)
	}
	defer mf.Close()
	b.SetBytes(int64(nrec * RecordBytes))
	b.ResetTimer()

	var refSec, serialSec, parSec, flateSec, mmapSec float64
	var refAllocs, serialAllocs, parAllocs, flateAllocs, mmapAllocs uint64
	// batchLane times one random-access decode to the Arena — the
	// chunked form the consumers (atum-stats, cachesim, the sweep
	// engine) iterate — so the lane measures decode work, not a
	// flattening copy the real pipeline never performs. The equality
	// check against the reference runs outside the clock, and the lane's
	// results are dropped before the next lane so no lane pays GC for a
	// predecessor's live set.
	batchLane := func(workers int, stream []byte, ref []Word) (float64, uint64) {
		var a *Arena
		sec, allocs, n := decodeLane(b, func() int {
			f, err := OpenReaderAt(bytes.NewReader(stream), int64(len(stream)))
			if err != nil {
				b.Fatal(err)
			}
			a, err = f.Arena(workers)
			if err != nil {
				b.Fatal(err)
			}
			return a.NumRecords()
		})
		if n != nrec {
			b.Fatalf("workers=%d decoded %d records, want %d", workers, n, nrec)
		}
		got := a.Flatten()
		for j := range ref {
			if got[j] != ref[j] {
				b.Fatalf("workers=%d record %d: %v, want %v", workers, j, got[j], ref[j])
			}
		}
		return sec, allocs
	}
	// mmapSweep decodes the whole mapped file segment by segment through
	// the zero-copy path, reusing dst across segments and iterations.
	segs := mf.Segments()
	var mmapDst []Word
	mmapSweep := func() int {
		var base uint64
		total := 0
		for i, info := range segs {
			p, err := mf.SegmentPayload(i)
			if err != nil {
				b.Fatal(err)
			}
			mmapDst, err = DecodeSegment(mf.codec, info, p, mmapDst, base)
			if err != nil {
				b.Fatal(err)
			}
			base += uint64(len(mmapDst))
			total += len(mmapDst)
		}
		return total
	}
	for i := 0; i < b.N; i++ {
		var ref []Word
		sec, allocs, n := decodeLane(b, func() int {
			var err error
			ref, err = referenceReadAll(bytes.NewReader(data))
			if err != nil {
				b.Fatal(err)
			}
			return len(ref)
		})
		if n != nrec {
			b.Fatalf("reference decoded %d records, want %d", n, nrec)
		}
		refSec += sec
		refAllocs = allocs
		sec, serialAllocs = batchLane(1, data, ref)
		serialSec += sec
		sec, parAllocs = batchLane(4, data, ref)
		parSec += sec
		sec, flateAllocs = batchLane(4, flateData, ref)
		flateSec += sec
		if i == 0 {
			// Verify the mapped path once, outside the clock, then warm dst
			// so the timed sweeps run in steady state.
			var base uint64
			for si, info := range segs {
				p, err := mf.SegmentPayload(si)
				if err != nil {
					b.Fatal(err)
				}
				mmapDst, err = DecodeSegment(mf.codec, info, p, mmapDst, base)
				if err != nil {
					b.Fatal(err)
				}
				for j, r := range mmapDst {
					if r != ref[base+uint64(j)] {
						b.Fatalf("mapped segment %d record %d: %v, want %v", si, j, r, ref[base+uint64(j)])
					}
				}
				base += uint64(len(mmapDst))
			}
			if base != nrec {
				b.Fatalf("mapped sweep decoded %d records, want %d", base, nrec)
			}
		}
		sec, mmapAllocs, n = decodeLane(b, mmapSweep)
		if n != nrec {
			b.Fatalf("mapped sweep decoded %d records, want %d", n, nrec)
		}
		mmapSec += sec
	}
	if mf.Mapped() && float64(mmapAllocs)/float64(nrec) > 0.01 {
		b.Fatalf("mapped raw lane allocated %d times for %d records; zero-copy gate requires allocation-free decode", mmapAllocs, nrec)
	}
	total := float64(nrec) * float64(b.N)
	b.ReportMetric(total/refSec, "reference-recs/s")
	b.ReportMetric(total/serialSec, "serial-recs/s")
	b.ReportMetric(total/parSec, "parallel4-recs/s")
	b.ReportMetric(total/flateSec, "flate4-recs/s")
	b.ReportMetric(total/mmapSec, "mmap-recs/s")
	b.ReportMetric(refSec/parSec, "speedup-x")
	b.ReportMetric(float64(len(data))/float64(len(flateData)), "compression-x")

	if *decodeJSON == "" {
		return
	}
	type lane struct {
		Workers         int     `json:"workers"`
		Seconds         float64 `json:"seconds"`
		RecordsPerSec   float64 `json:"records_per_sec"`
		AllocsPerRecord float64 `json:"allocs_per_record"`
		BytesPerRecord  float64 `json:"bytes_per_record"`
	}
	rawBPR := float64(len(data)) / nrec
	flateBPR := float64(len(flateData)) / nrec
	out := struct {
		GeneratedBy      string  `json:"generated_by"`
		Cores            int     `json:"cores"`
		GOMAXPROCS       int     `json:"gomaxprocs"`
		TraceRecords     int     `json:"trace_records"`
		Segments         int     `json:"segments"`
		Codec            string  `json:"codec"`
		StreamBytes      int     `json:"stream_bytes"`
		FlateStreamBytes int     `json:"flate_stream_bytes"`
		CompressionX     float64 `json:"compression_x"`
		Mapped           bool    `json:"mmap_active"`
		ReferencePR3     lane    `json:"reference_pr3"`
		SerialBatch      lane    `json:"serial_batch"`
		Parallel         lane    `json:"parallel"`
		Flate            lane    `json:"flate"`
		Mmap             lane    `json:"mmap"`
		SpeedupSerialX   float64 `json:"speedup_serial_vs_reference_x"`
		SpeedupParallel  float64 `json:"speedup_parallel_vs_reference_x"`
	}{
		GeneratedBy:      "go test -C internal/trace -bench=DecodeSegmented -benchtime=10x -run '^$' -decode-json=" + *decodeJSON,
		Cores:            runtime.NumCPU(),
		GOMAXPROCS:       runtime.GOMAXPROCS(0),
		TraceRecords:     nrec,
		Segments:         nseg,
		Codec:            "delta",
		StreamBytes:      len(data),
		FlateStreamBytes: len(flateData),
		CompressionX:     float64(len(data)) / float64(len(flateData)),
		Mapped:           mf.Mapped(),
		ReferencePR3: lane{Workers: 1, Seconds: refSec / float64(b.N),
			RecordsPerSec: total / refSec, AllocsPerRecord: float64(refAllocs) / nrec, BytesPerRecord: rawBPR},
		SerialBatch: lane{Workers: 1, Seconds: serialSec / float64(b.N),
			RecordsPerSec: total / serialSec, AllocsPerRecord: float64(serialAllocs) / nrec, BytesPerRecord: rawBPR},
		Parallel: lane{Workers: 4, Seconds: parSec / float64(b.N),
			RecordsPerSec: total / parSec, AllocsPerRecord: float64(parAllocs) / nrec, BytesPerRecord: rawBPR},
		Flate: lane{Workers: 4, Seconds: flateSec / float64(b.N),
			RecordsPerSec: total / flateSec, AllocsPerRecord: float64(flateAllocs) / nrec, BytesPerRecord: flateBPR},
		Mmap: lane{Workers: 1, Seconds: mmapSec / float64(b.N),
			RecordsPerSec: total / mmapSec, AllocsPerRecord: float64(mmapAllocs) / nrec, BytesPerRecord: rawBPR},
		SpeedupSerialX:  refSec / serialSec,
		SpeedupParallel: refSec / parSec,
	}
	data2, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(*decodeJSON, append(data2, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

// captureJSON, when set, makes BenchmarkCaptureSegmented record its
// raw / flate write-lane numbers (BENCH_capture.json). From the repo
// root:
//
//	go test -C internal/trace -bench=CaptureSegmented -benchtime=10x -run '^$' -capture-json=../../BENCH_capture.json
var captureJSON = flag.String("capture-json", "", "write capture benchmark results to this JSON file")

// BenchmarkCaptureSegmented measures the segment-writer side of the
// container: the same records written as a segmented delta stream raw
// and flate-encoded, reporting write throughput and stored bytes per
// record for each. This is the cost -compress adds at capture time; the
// decode side of the trade is BenchmarkDecodeSegmented's flate lane.
func BenchmarkCaptureSegmented(b *testing.B) {
	const nrec = 400_000
	const nseg = 32
	recs := makeBenchTrace(nrec, 5)
	var rawSec, flateSec float64
	var rawBytes, flateBytes int
	writeLane := func(enc uint8) (float64, int) {
		t0 := time.Now()
		stream := benchStream(b, recs, nseg, CodecDelta, enc)
		return time.Since(t0).Seconds(), len(stream)
	}
	b.SetBytes(int64(nrec * RecordBytes))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sec, n := writeLane(SegEncRaw)
		rawSec, rawBytes = rawSec+sec, n
		sec, n = writeLane(SegEncFlate)
		flateSec, flateBytes = flateSec+sec, n
	}
	total := float64(nrec) * float64(b.N)
	b.ReportMetric(total/rawSec, "raw-recs/s")
	b.ReportMetric(total/flateSec, "flate-recs/s")
	b.ReportMetric(float64(rawBytes)/float64(flateBytes), "compression-x")

	if *captureJSON == "" {
		return
	}
	type lane struct {
		Seconds        float64 `json:"seconds"`
		RecordsPerSec  float64 `json:"records_per_sec"`
		StoredBytes    int     `json:"stored_bytes"`
		BytesPerRecord float64 `json:"bytes_per_record"`
	}
	out := struct {
		GeneratedBy  string  `json:"generated_by"`
		Cores        int     `json:"cores"`
		GOMAXPROCS   int     `json:"gomaxprocs"`
		TraceRecords int     `json:"trace_records"`
		Segments     int     `json:"segments"`
		Codec        string  `json:"codec"`
		Raw          lane    `json:"raw"`
		Flate        lane    `json:"flate"`
		CompressionX float64 `json:"compression_x"`
		WriteSlowedX float64 `json:"flate_write_slowdown_x"`
	}{
		GeneratedBy:  "go test -C internal/trace -bench=CaptureSegmented -benchtime=10x -run '^$' -capture-json=" + *captureJSON,
		Cores:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		TraceRecords: nrec,
		Segments:     nseg,
		Codec:        "delta",
		Raw: lane{Seconds: rawSec / float64(b.N), RecordsPerSec: total / rawSec,
			StoredBytes: rawBytes, BytesPerRecord: float64(rawBytes) / nrec},
		Flate: lane{Seconds: flateSec / float64(b.N), RecordsPerSec: total / flateSec,
			StoredBytes: flateBytes, BytesPerRecord: float64(flateBytes) / nrec},
		CompressionX: float64(rawBytes) / float64(flateBytes),
		WriteSlowedX: (flateSec / rawSec),
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(*captureJSON, append(data, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkSummarize(b *testing.B) {
	recs := makeTrace(100_000, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Summarize(recs)
	}
}
