//go:build !unix || race

package mem

// newRAM allocates p's RAM on the Go heap. Race builds do so on every
// platform: the race detector instruments Go-heap memory only, and
// simulated RAM must stay where it can see it.
func newRAM(p *Physical, size uint32) error {
	p.ram = make([]byte, size)
	return nil
}
