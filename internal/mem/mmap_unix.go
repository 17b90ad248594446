//go:build unix && !race

package mem

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"syscall"
)

// releases counts the RAM mappings release has unmapped.
var releases atomic.Int64

// newRAM maps size bytes of anonymous private memory as p's RAM. Its
// pages read zero and take no host memory until first written, so a
// boot costs the pages it touches, not the size of RAM. The mapping is
// unmapped once p is unreachable.
func newRAM(p *Physical, size uint32) error {
	ram, err := syscall.Mmap(-1, 0, int(size), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return fmt.Errorf("mem: mapping %#x bytes of RAM: %w", size, err)
	}
	p.ram = ram
	runtime.SetFinalizer(p, (*Physical).release)
	return nil
}

// release is p's finalizer: nothing reaches p, so by the Bytes contract
// nothing reads its RAM either.
func (p *Physical) release() {
	if syscall.Munmap(p.ram) == nil {
		releases.Add(1)
	}
}
