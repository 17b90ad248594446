package main

import "time"

// The reference computation: a fixed, allocation-free loop shaped like
// the host work the program does — dispatch on a pseudo-random opcode
// stream, as an interpreter does, and reads and writes that land all over
// a 16 MiB table, as the simulators do in simulated memory and in their
// tables. The table is about as large as an op's working set, so when
// other tenants of the host take cache or memory bandwidth, the
// reference slows about as much as the ops do. It is the benchmark's
// own code, so no change to the program moves it; timed next to every op,
// it measures how fast the host runs right now.
const (
	refSteps     = 1_500_000
	refTableBits = 22 // 2^22 uint32s: 16 MiB
)

var refTable [1 << refTableBits]uint32

// refWork runs the reference computation once. Every call does exactly
// the same work.
func refWork() uint64 {
	clear(refTable[:])
	const mask = 1<<refTableBits - 1
	x, acc := uint64(0x9e3779b97f4a7c15), uint64(1)
	for i := 0; i < refSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		idx := uint32(x>>40) & mask
		switch x & 7 {
		case 0:
			acc += uint64(refTable[idx])
		case 1:
			refTable[idx] = uint32(acc)
		case 2:
			acc ^= x >> 3
		case 3:
			acc = acc*31 + uint64(idx)
		case 4:
			refTable[idx]++
		case 5:
			if acc&1 == 0 {
				acc >>= 1
			} else {
				acc = 3*acc + 1
			}
		case 6:
			acc += uint64(refTable[(idx+4096)&mask]) >> 1
		case 7:
			acc -= uint64(refTable[idx^1])
		}
	}
	return acc
}

var refSink uint64

// timeRef times one run of the reference computation.
func timeRef() float64 {
	t0 := time.Now()
	refSink += refWork()
	return time.Since(t0).Seconds()
}
