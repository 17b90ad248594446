package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
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
// switches.
func testTrace(t *testing.T) string {
	t.Helper()
	var recs []trace.Record
	seed := uint32(12345)
	pid := uint8(1)
	for len(recs) < 20_000 {
		seed = seed*1664525 + 1013904223
		r := seed >> 8
		switch {
		case r%300 == 0:
			pid = uint8(1 + r%3)
			recs = append(recs, trace.Record{Kind: trace.KindCtxSwitch, PID: pid, Extra: uint16(pid)})
		case r%7 == 0:
			recs = append(recs, trace.Record{Kind: trace.KindDRead, Addr: 0x8000_0000 | (r % 4096 * 4), Width: 4, PID: pid})
		case r%11 == 0:
			recs = append(recs, trace.Record{Kind: trace.KindPTERead, Addr: 0x8001_0000 | (r % 512 * 4), Width: 4, PID: pid})
		case r%5 == 0:
			recs = append(recs, trace.Record{Kind: trace.KindDWrite, Addr: uint32(pid)<<16 | (r % 8192 * 4), Width: 4, User: true, PID: pid})
		default:
			recs = append(recs, trace.Record{Kind: trace.KindIFetch, Addr: 0x1000 | (r % 2048 * 4), Width: 4, User: true, PID: pid})
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
	for off := 0; off < len(recs); off += 3_000 {
		if _, err := sw.WriteSegment(recs[off:min(off+3_000, len(recs))], 0, 0); err != nil {
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
// and streamed stdin print the same bytes.
func TestInputModes(t *testing.T) {
	path := testTrace(t)
	for _, flags := range [][]string{
		{"-sweep", "sizes"},
		{"-mattson"},
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
	}
}

// TestRejectsUnsimulatableSizes: a -mattson block size that is not a
// power of two exits 2 instead of silently running at the next smaller
// power of two, and a cache size that is not sets*assoc*block fails
// instead of simulating a smaller cache under the requested label.
func TestRejectsUnsimulatableSizes(t *testing.T) {
	path := testTrace(t)
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
