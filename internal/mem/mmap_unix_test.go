//go:build unix && !race

package mem

import (
	"runtime"
	"testing"
	"time"
)

// TestRAMReleasedWithPhysical: creating and dropping 256 machines' RAM
// (8 MB each, with a page written) leaves only a few mappings live once
// the collector has run.
func TestRAMReleasedWithPhysical(t *testing.T) {
	const n = 256
	start := releases.Load()
	for i := 0; i < n; i++ {
		p := mustNew(t, 8<<20, 512<<10)
		if err := p.Store32(uint32(i)*PageSize, 1); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		live := n - (releases.Load() - start)
		if live <= 4 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d mappings still live", live, n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
