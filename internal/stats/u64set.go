// Package stats holds U64Set, the open-addressing set behind distinct
// counts on hot paths: the cache simulators' cold-miss accounting
// (cache.Cache and cache.GridSim) and the distinct-page count of
// trace.SummarizeSource.
package stats

// U64Set is an open-addressing set of uint64 keys, for distinct counts
// on hot paths: the cache simulator's cold-miss accounting and the
// trace summary's distinct pages. A Go map paid a hash call, a bucket
// walk and (on insert) a write barrier per key; this set is a flat
// power-of-two slice probed linearly with a Fibonacci-mixed hash, so
// the common case — key already present — is one multiply and one or
// two slot loads. Zero is a valid key, tracked out of band so slot 0
// can mean "empty".
type U64Set struct {
	slots   []uint64
	mask    uint64
	n       int  // keys stored in slots (excludes the zero key)
	hasZero bool // the zero key is present
}

// NewU64Set returns a set presized to hold hint keys before growing.
func NewU64Set(hint int) *U64Set {
	size := 16
	for size*3/4 < hint {
		size *= 2
	}
	return &U64Set{slots: make([]uint64, size), mask: uint64(size - 1)}
}

// Add inserts k and reports whether it was absent.
func (s *U64Set) Add(k uint64) bool {
	if k == 0 {
		if s.hasZero {
			return false
		}
		s.hasZero = true
		return true
	}
	i := (k * 0x9E3779B97F4A7C15) >> 32 & s.mask
	for {
		switch s.slots[i] {
		case k:
			return false
		case 0:
			s.slots[i] = k
			s.n++
			if s.n*4 > len(s.slots)*3 {
				s.grow()
			}
			return true
		}
		i = (i + 1) & s.mask
	}
}

// Len returns the number of distinct keys added.
func (s *U64Set) Len() int {
	n := s.n
	if s.hasZero {
		n++
	}
	return n
}

func (s *U64Set) grow() {
	old := s.slots
	s.slots = make([]uint64, 2*len(old))
	s.mask = uint64(len(s.slots) - 1)
	for _, k := range old {
		if k == 0 {
			continue
		}
		i := (k * 0x9E3779B97F4A7C15) >> 32 & s.mask
		for s.slots[i] != 0 {
			i = (i + 1) & s.mask
		}
		s.slots[i] = k
	}
}
