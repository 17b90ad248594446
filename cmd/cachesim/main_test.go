package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"atum/internal/trace"
)

// TestMain lets the test binary run as cachesim itself when re-executed
// with CACHESIM_RUN_MAIN set, so the tests below can check the output
// bytes and exit codes of real invocations.
func TestMain(m *testing.M) {
	if os.Getenv("CACHESIM_RUN_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// cachesim runs the command with args — stdin read from the file named
// by stdin, if any — and returns its standard output and exit code.
func cachesim(t *testing.T, stdin string, args ...string) ([]byte, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "CACHESIM_RUN_MAIN=1")
	if stdin != "" {
		f, err := os.Open(stdin)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		cmd.Stdin = f
	}
	var out bytes.Buffer
	cmd.Stdout = &out
	err := cmd.Run()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return out.Bytes(), exit.ExitCode()
	}
	if err != nil {
		t.Fatal(err)
	}
	return out.Bytes(), 0
}

// testTrace writes a small multi-segment trace: three processes with
// private working sets, shared kernel references, PTE walks and context
// switches. Its segments are dealt round-robin to cpus processors, so
// cpus == 1 is a serial capture.
func testTrace(t *testing.T, cpus int) string {
	t.Helper()
	var recs []trace.Word
	seed := uint32(12345)
	pid := uint8(1)
	for len(recs) < 20_000 {
		seed = seed*1664525 + 1013904223
		r := seed >> 8
		switch {
		case r%300 == 0:
			pid = uint8(1 + r%3)
			recs = append(recs, trace.Pack(trace.KindCtxSwitch, 0, 0, pid, false, false, uint16(pid)))
		case r%7 == 0:
			recs = append(recs, trace.Pack(trace.KindDRead, 0x8000_0000|(r%4096*4), 4, pid, false, false, 0))
		case r%11 == 0:
			recs = append(recs, trace.Pack(trace.KindPTERead, 0x8001_0000|(r%512*4), 4, pid, false, false, 0))
		case r%5 == 0:
			recs = append(recs, trace.Pack(trace.KindDWrite, uint32(pid)<<16|(r%8192*4), 4, pid, true, false, 0))
		default:
			recs = append(recs, trace.Pack(trace.KindIFetch, 0x1000|(r%2048*4), 4, pid, true, false, 0))
		}
	}
	path := filepath.Join(t.TempDir(), "mix.trc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close() // error paths; the success path checks Close below
	sw, err := trace.NewSegmentWriter(f, trace.CodecDelta, "cachesim test")
	if err != nil {
		t.Fatal(err)
	}
	for i, off := 0, 0; off < len(recs); i, off = i+1, off+3_000 {
		stamp := trace.SegmentInfo{CPU: uint16(i % cpus)}
		if _, err := sw.WriteSegment(recs[off:min(off+3_000, len(recs))], stamp); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestInputModes: the simulators are registered once and -stream only
// chooses how the trace reaches them, so a decoded file, a streamed file
// and streamed stdin print the same bytes. A serial capture is all
// CPU 0, so -cpu 0 replays the whole trace too.
func TestInputModes(t *testing.T) {
	path := testTrace(t, 1)
	for _, flags := range [][]string{
		{"-sweep", "sizes"},
		{"-mattson"},
		{"-mattson", "-block", "64"},
		{"-tlb"},
		{"-l2", "256K"},
		{"-user-only", "-sweep", "assoc"},
	} {
		want, code := cachesim(t, "", append(flags, path)...)
		if code != 0 || len(want) == 0 {
			t.Fatalf("%v: exit %d, %d bytes of output", flags, code, len(want))
		}
		streamed := append(append([]string{"-stream"}, flags...), path)
		if got, code := cachesim(t, "", streamed...); code != 0 || !bytes.Equal(got, want) {
			t.Errorf("%v: -stream file printed (exit %d)\n%s\nwant\n%s", flags, code, got, want)
		}
		stdin := append(append([]string{"-stream"}, flags...), "-")
		if got, code := cachesim(t, path, stdin...); code != 0 || !bytes.Equal(got, want) {
			t.Errorf("%v: -stream stdin printed (exit %d)\n%s\nwant\n%s", flags, code, got, want)
		}
		cpu0 := append(append([]string{"-cpu", "0"}, flags...), path)
		if got, code := cachesim(t, "", cpu0...); code != 0 || !bytes.Equal(got, want) {
			t.Errorf("%v: -cpu 0 printed (exit %d)\n%s\nwant\n%s", flags, code, got, want)
		}
	}
}

// TestCPUFilterAbsent: a -cpu no segment carries fails instead of
// printing the all-zero statistics of an empty replay.
func TestCPUFilterAbsent(t *testing.T) {
	path := testTrace(t, 2)
	for _, cpu := range []string{"0", "1"} {
		if out, code := cachesim(t, "", "-cpu", cpu, path); code != 0 || len(out) == 0 {
			t.Errorf("-cpu %s: exit %d, %d bytes of output", cpu, code, len(out))
		}
	}
	if out, code := cachesim(t, "", "-cpu", "2", path); code == 0 {
		t.Errorf("-cpu 2 on a 2-CPU trace: exit 0, printed\n%s", out)
	}
}

// TestRejectsUnsimulatableSizes: a -mattson block size that is not a
// power of two exits 2 instead of silently running at the next smaller
// power of two, and a cache size that is not sets*assoc*block fails
// instead of simulating a smaller cache under the requested label.
func TestRejectsUnsimulatableSizes(t *testing.T) {
	path := testTrace(t, 1)
	for _, stream := range [][]string{nil, {"-stream"}} {
		if _, code := cachesim(t, "", append(stream, "-mattson", "-block", "24", path)...); code != 2 {
			t.Errorf("%v -mattson -block 24: exit %d, want 2", stream, code)
		}
		if _, code := cachesim(t, "", append(stream, "-mattson", "-block", "32", path)...); code != 0 {
			t.Errorf("%v -mattson -block 32: exit %d, want 0", stream, code)
		}
		for _, size := range []string{"24", "16388"} {
			if _, code := cachesim(t, "", append(stream, "-size", size, "-block", "16", path)...); code == 0 {
				t.Errorf("%v -size %s -block 16: exit 0, want a failure", stream, size)
			}
		}
	}
}

// TestMattsonCapacities: the -mattson capacity column is the byte size
// of each row's block count at the block size the analysis ran with:
// -block 0 runs (and prints) the 16-byte default, sizes below 1 KB
// print in bytes, and 16384 blocks of 256 KB do not wrap to zero.
func TestMattsonCapacities(t *testing.T) {
	path := testTrace(t, 1)
	for _, c := range []struct {
		block string
		want  []string
	}{
		{"16", []string{"256B", "1KB", "4KB", "16KB", "64KB", "256KB"}},
		{"0", []string{"256B", "1KB", "4KB", "16KB", "64KB", "256KB"}},
		{"262144", []string{"4096KB", "16384KB", "65536KB", "262144KB", "1048576KB", "4194304KB"}},
	} {
		out, code := cachesim(t, "", "-mattson", "-block", c.block, path)
		if code != 0 {
			t.Fatalf("-block %s: exit %d", c.block, code)
		}
		// Title, header and rule lines, then one row per capacity.
		lines := strings.Split(string(out), "\n")
		var got []string
		for _, l := range lines[3:min(3+len(c.want), len(lines))] {
			got = append(got, strings.Fields(l)[0])
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("-block %s: capacities %v, want %v\n%s", c.block, got, c.want, out)
		}
	}
}
