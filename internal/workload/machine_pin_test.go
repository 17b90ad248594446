package workload

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"testing"

	"atum/internal/kernel"
	"atum/internal/micro"
	"atum/internal/trace"
)

// pinnedSysConfig is perfbench's machine: 8 MB with 512 KB reserved and
// the interval timer at 100k cycles.
func pinnedSysConfig(cpus int) kernel.Config {
	cfg := kernel.DefaultConfig()
	cfg.Machine.MemSize = 8 << 20
	cfg.Machine.ReservedSize = 512 << 10
	cfg.ICRCycles = 100_000
	cfg.CPUs = cpus
	return cfg
}

// coreStateDigest hashes what every core of sys ends a run with: its
// counters, registers, PSL, banked stack pointers, translation
// statistics and TB flush counts.
func coreStateDigest(sys *kernel.System) string {
	h := sha256.New()
	for i, c := range sys.Cores {
		fmt.Fprintf(h, "cpu %d instrs %d cycles %d halted %v\n", i, c.Instrs, c.Cycles, c.Halted())
		fmt.Fprintf(h, "r %x psl %#x ksp %#x usp %#x\n", c.CPU.R, c.CPU.PSL, c.CPU.KSP, c.CPU.USP)
		fmt.Fprintf(h, "mmu %+v flushes %d %d\n", c.MMU.Stats, c.MMU.TB.ProcessFlushes, c.MMU.TB.TotalFlushes)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func digestOf(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// machineDigests runs the 13-process mix on cpus processors, untraced
// and then traced with one spill service per core (delta codec, 64 KB
// segments), and digests each run's final core state and console and
// each core's spilled stream.
func machineDigests(t *testing.T, cpus int) map[string]string {
	t.Helper()
	out := map[string]string{}
	run := func(phase string, sys *kernel.System) {
		reason, err := sys.Run(5_000_000)
		if err != nil {
			t.Fatalf("cpus=%d %s: %v", cpus, phase, err)
		}
		if reason != micro.StopHalt {
			t.Fatalf("cpus=%d %s: stopped on %v, want halt", cpus, phase, reason)
		}
		key := fmt.Sprintf("cpus=%d/%s/", cpus, phase)
		out[key+"state"] = coreStateDigest(sys)
		out[key+"console"] = digestOf([]byte(sys.Console()))
	}
	mix := Mixes["everything"]
	sys, err := BootMix(pinnedSysConfig(cpus), mix...)
	if err != nil {
		t.Fatal(err)
	}
	run("untraced", sys)

	if sys, err = BootMix(pinnedSysConfig(cpus), mix...); err != nil {
		t.Fatal(err)
	}
	sinks := make([]*bytes.Buffer, cpus)
	writers := make([]io.Writer, cpus)
	for i := range sinks {
		sinks[i] = new(bytes.Buffer)
		writers[i] = sinks[i]
	}
	svcs, err := kernel.StartSpillCPUs(sys, writers, kernel.SpillConfig{
		SegmentBytes: 64 << 10,
		Codec:        trace.CodecDelta,
		Meta:         "machine-pin",
	})
	if err != nil {
		t.Fatal(err)
	}
	run("traced", sys)
	for c, svc := range svcs {
		if err := svc.Close(); err != nil {
			t.Fatalf("cpus=%d: cpu %d: Close: %v", cpus, c, err)
		}
		out[fmt.Sprintf("cpus=%d/traced/stream%d", cpus, c)] = digestOf(sinks[c].Bytes())
	}
	return out
}

// pinnedMachineDigests are machineDigests of the 13-process mix on 1, 2
// and 4 CPUs, taken before the interpreter's fetch, translation and run
// loops were last reworked. A change to how the machine executes must
// leave every instruction count, cycle, register, TB statistic, console
// byte and spilled record exactly as these hashes record them.
var pinnedMachineDigests = map[string]string{
	"cpus=1/untraced/console": "4bc7c94db4fe6d851968b87b2d94360ba2280f980e3c487e4f24e587585a6f31",
	"cpus=1/untraced/state":   "6e74cbd6287475901924606bdfc68bc24b478842b06c5d70aa7a5e79df54164d",
	"cpus=1/traced/console":   "e2ab5cd3a2423ac62f8f60e931a921d7e287dd29a107a92ed274a716b5c0e07f",
	"cpus=1/traced/state":     "936599cb22e93c511d8837e0a31f314ed5328f85b8c03158d11538168038405e",
	"cpus=1/traced/stream0":   "0de1fb54e04b1264f2fdf88550f4215fc5d002301cf0ad494464b38b1fea8437",
	"cpus=2/untraced/console": "4bc7c94db4fe6d851968b87b2d94360ba2280f980e3c487e4f24e587585a6f31",
	"cpus=2/untraced/state":   "c3b04d14b58108438242499e20248008b602c3451599234b8eac04ef806fe93b",
	"cpus=2/traced/console":   "16a796b8f6815ceff53bceaf93d5762cf536eff40a7d0b7e800487bb15bbe485",
	"cpus=2/traced/state":     "758786d5a00be9ac4b5db0505af5738810ae9cf11896fb2e66a7634d7e5d444c",
	"cpus=2/traced/stream0":   "31c6e39564b93200763003ad474c9fdb039b21c79fda928ae488af4416e29ad6",
	"cpus=2/traced/stream1":   "772ed172bd1820ce9982ebbc4527d3ae917c549d67cd238d0f254d1f0b0820ed",
	"cpus=4/untraced/console": "1157d3e95129dffb59c359be20ec94defd2323119a8c718d11848b43627d6497",
	"cpus=4/untraced/state":   "7ea558898bb3304b2bcf6dda40b65b59ada9ea55a310f43ec32cdac65cb06b07",
	"cpus=4/traced/console":   "13dedf481d23710f5645409d6f4f20444244e6f058ba7dfb12a5c0a9e1a5aff2",
	"cpus=4/traced/state":     "ada6f184073d6079bad89452fd4ac556b1819e865c0c60bdf9a15360c97ef155",
	"cpus=4/traced/stream0":   "9fbf19f42b0ad55ac78a4c54b0813ca3e9fbc4721f3007db082fda3c6c5cc650",
	"cpus=4/traced/stream1":   "a824d99fec9d95987255bae22cbe5d8beb607da607eaf342c463bd2150ba447a",
	"cpus=4/traced/stream2":   "6df0e826ab3c630ba07269e8a2deb9c694d386fb1b21fefedebc8fbfd3c74826",
	"cpus=4/traced/stream3":   "5e35a9535d6d9a562fc1822ae182837d7bba3d4d406f92b62e550d8c015f7e75",
}

// TestMachinePinned: the 13-process mix at perfbench's settings ends in
// exactly the pinned core state, console and per-CPU spilled streams on
// 1, 2 and 4 CPUs, untraced and traced.
func TestMachinePinned(t *testing.T) {
	got := map[string]string{}
	for _, cpus := range []int{1, 2, 4} {
		for k, v := range machineDigests(t, cpus) {
			got[k] = v
		}
	}
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		want, ok := pinnedMachineDigests[k]
		if !ok {
			t.Errorf("%s: no pinned digest (got %q)", k, got[k])
			continue
		}
		if got[k] != want {
			t.Errorf("%s: digest %s, want %s", k, got[k], want)
		}
	}
	for k := range pinnedMachineDigests {
		if _, ok := got[k]; !ok {
			t.Errorf("%s: pinned but not produced", k)
		}
	}
}
