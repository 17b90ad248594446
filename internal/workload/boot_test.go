package workload

import (
	"fmt"
	"sync"
	"testing"

	"atum/internal/micro"
)

// BenchmarkBootMix times one boot of the 13-process mix at perfbench's
// settings, after the first has assembled the kernel and the programs.
func BenchmarkBootMix(b *testing.B) {
	mix := Mixes["everything"]
	if _, err := BootMix(pinnedSysConfig(1), mix...); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BootMix(pinnedSysConfig(1), mix...); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSharedImagesStayPinned: booting and running the mix traced on 1
// and 2 CPUs leaves the images every boot shares exactly as assembled.
func TestSharedImagesStayPinned(t *testing.T) {
	for _, cpus := range []int{1, 2} {
		machineDigests(t, cpus)
	}
	mix := Mixes["everything"]
	a, err := BootMix(pinnedSysConfig(1), mix...)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BootMix(pinnedSysConfig(2), mix...)
	if err != nil {
		t.Fatal(err)
	}
	if a.Kernel != b.Kernel {
		t.Error("two boots assembled the kernel apart")
	}
	if got := programDigest(a.Kernel); got != assembledDigests["kernel"] {
		t.Errorf("kernel: digest %s, want %s", got, assembledDigests["kernel"])
	}
	for _, name := range mix {
		w, _ := ByName(name)
		p, err := w.Program()
		if err != nil {
			t.Fatal(err)
		}
		if again, _ := w.Program(); again != p {
			t.Errorf("%s: assembled twice", name)
		}
		if got, want := programDigest(p), assembledDigests["workload/"+name]; got != want {
			t.Errorf("%s: digest %s, want %s", name, got, want)
		}
	}
}

// TestParallelBoot: four goroutines boot and run the mix at once from the
// shared images, and each ends with the console and core state of a
// serial boot.
func TestParallelBoot(t *testing.T) {
	mix := Mixes["everything"]
	run := func() (console, state string, err error) {
		sys, err := BootMix(pinnedSysConfig(1), mix...)
		if err != nil {
			return "", "", err
		}
		reason, err := sys.Run(5_000_000)
		if err != nil {
			return "", "", err
		}
		if reason != micro.StopHalt {
			return "", "", fmt.Errorf("stopped on %v, want halt", reason)
		}
		return sys.Console(), coreStateDigest(sys), nil
	}
	wantConsole, wantState, err := run()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 4)
	consoles, states := make([]string, 4), make([]string, 4)
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			consoles[g], states[g], errs[g] = run()
		}()
	}
	wg.Wait()
	for g, err := range errs {
		switch {
		case err != nil:
			t.Errorf("goroutine %d: %v", g, err)
		case consoles[g] != wantConsole:
			t.Errorf("goroutine %d: console %q, serial %q", g, consoles[g], wantConsole)
		case states[g] != wantState:
			t.Errorf("goroutine %d: core state %s, serial %s", g, states[g], wantState)
		}
	}
}
