//go:build unix && !race

package workload

import (
	"runtime"
	"testing"
)

// TestBootAllocs: once the kernel and the programs are assembled, a boot
// of the 13-process mix at perfbench's settings allocates under 256 KB of
// Go heap. RAM is a mapping faulted in page by page, not 8 MB of heap.
func TestBootAllocs(t *testing.T) {
	const boots = 8
	mix := Mixes["everything"]
	if _, err := BootMix(pinnedSysConfig(1), mix...); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < boots; i++ {
		if _, err := BootMix(pinnedSysConfig(1), mix...); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / boots; per >= 256<<10 {
		t.Errorf("a boot allocates %d bytes of Go heap, want under %d", per, 256<<10)
	}
}
