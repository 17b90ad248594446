package stats

import (
	"math/rand"
	"testing"
)

// TestU64SetMatchesMap drives the open-addressing set and a Go map with
// the same key stream — including zero, duplicates and values that
// collide in the low bits — and demands identical membership answers.
func TestU64SetMatchesMap(t *testing.T) {
	s := NewU64Set(0)
	ref := map[uint64]bool{}
	r := rand.New(rand.NewSource(7))
	keys := make([]uint64, 0, 6000)
	for i := 0; i < 2000; i++ {
		keys = append(keys,
			uint64(r.Intn(512)),         // dense small keys, many repeats
			uint64(r.Intn(64))<<32,      // zero low bits
			r.Uint64()&0xFFFF_FFFF_FFFF, // the cache's key domain
		)
	}
	for i, k := range keys {
		want := !ref[k]
		ref[k] = true
		if got := s.Add(k); got != want {
			t.Fatalf("key %d (%#x): Add = %v, want %v", i, k, got, want)
		}
	}
	if s.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(ref))
	}
	// Everything inserted must still be present after all the growth.
	for k := range ref {
		if s.Add(k) {
			t.Fatalf("key %#x lost after growth", k)
		}
	}
}

// TestU64SetPresize: a presized set must absorb its hinted key count
// without growing.
func TestU64SetPresize(t *testing.T) {
	const hint = 10_000
	s := NewU64Set(hint)
	before := len(s.slots)
	for i := uint64(1); i <= hint; i++ {
		s.Add(i * 0x61C88647)
	}
	if len(s.slots) != before {
		t.Fatalf("set grew from %d to %d slots despite presize hint %d", before, len(s.slots), hint)
	}
	if s.Len() != hint {
		t.Fatalf("Len = %d, want %d", s.Len(), hint)
	}
}

func BenchmarkColdMissSet(b *testing.B) {
	r := rand.New(rand.NewSource(9))
	keys := make([]uint64, 1<<16)
	for i := range keys {
		keys[i] = uint64(r.Intn(1 << 14)) // cache-like reuse
	}
	b.Run("u64set", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := NewU64Set(1 << 12)
			for _, k := range keys {
				s.Add(k)
			}
		}
	})
	b.Run("map", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m := make(map[uint64]bool, 1<<12)
			for _, k := range keys {
				if !m[k] {
					m[k] = true
				}
			}
		}
	})
}
