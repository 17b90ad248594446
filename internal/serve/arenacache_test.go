package serve

import (
	"testing"
	"unsafe"

	"atum/internal/trace"
)

func slice(n int) []trace.Word { return make([]trace.Word, n) }

// residentBytes sums what the resident slices really occupy — their
// capacity times the element size — which the budget is meant to bound.
func residentBytes(c *arenaCache) int64 {
	var n int64
	for el := c.lru.Front(); el != nil; el = el.Next() {
		recs := el.Value.(*arenaEntry).recs
		n += int64(cap(recs)) * int64(unsafe.Sizeof(recs[0]))
	}
	return n
}

// TestArenaCacheLRU exercises the cache against its internal state:
// budget adherence, cold-end eviction order, recency promotion on hit,
// oversize rejection, and generation-key separation.
func TestArenaCacheLRU(t *testing.T) {
	key := func(name string, gen uint64, seg int) arenaKey {
		return arenaKey{tenant: "t", trace: name, gen: gen, seg: seg}
	}
	// Budget for exactly three 100-record slices.
	c := newArenaCache(3 * 100 * trace.RecordBytes)
	// The accounting must charge what the slices occupy: used and the
	// gauge equal the resident bytes, within the budget.
	checkBytes := func(when string) {
		t.Helper()
		if real := residentBytes(c); c.used != real || real > c.budget {
			t.Fatalf("%s: used %d, resident %d bytes, budget %d", when, c.used, real, c.budget)
		}
		if g := mArenaBytes.Value(); g != float64(c.used) {
			t.Fatalf("%s: gauge reads %v, used %d", when, g, c.used)
		}
	}
	for i := 0; i < 3; i++ {
		c.put(key("a", 1, i), slice(100))
	}
	if c.lru.Len() != 3 {
		t.Fatalf("%d entries resident after three inserts", c.lru.Len())
	}
	checkBytes("three inserts")

	// Touch segment 0 so segment 1 becomes the cold end, then insert a
	// fourth slice: 1 must be evicted, 0 and 2 must survive.
	if c.get(key("a", 1, 0)) == nil {
		t.Fatal("miss on resident entry")
	}
	c.put(key("a", 1, 3), slice(100))
	if c.get(key("a", 1, 1)) != nil {
		t.Fatal("cold entry survived eviction")
	}
	for _, seg := range []int{0, 2, 3} {
		if c.get(key("a", 1, seg)) == nil {
			t.Fatalf("warm entry %d was evicted", seg)
		}
	}
	checkBytes("eviction")

	// A slice larger than the whole budget is rejected without touching
	// residents.
	c.put(key("huge", 1, 0), slice(400))
	if c.get(key("huge", 1, 0)) != nil {
		t.Fatal("oversize slice was cached")
	}
	if c.get(key("a", 1, 0)) == nil {
		t.Fatal("oversize insert disturbed residents")
	}

	// A re-upload bumps the generation; the old decode must not answer
	// for the new bytes.
	if c.get(key("a", 2, 0)) != nil {
		t.Fatal("stale generation served")
	}

	// Racing decoders: a second put under a live key is a no-op and the
	// original slice keeps being served.
	first := slice(50)
	first[0] = trace.Pack(trace.KindDRead, 0xdead, 4, 0, false, false, 0)
	c.put(key("b", 1, 0), first)
	c.put(key("b", 1, 0), slice(50))
	if got := c.get(key("b", 1, 0)); got[0].Addr() != 0xdead {
		t.Fatal("second racing put replaced the first decode")
	}
	checkBytes("racing put")
}

// TestArenaCacheEncodingKey: the payload encoding is part of the cache
// key — a slice decoded from a raw segment must never satisfy a lookup
// for the same segment re-stored compressed (or vice versa).
func TestArenaCacheEncodingKey(t *testing.T) {
	c := newArenaCache(1 << 20)
	raw := arenaKey{tenant: "t", trace: "x", gen: 1, seg: 0, enc: trace.SegEncRaw}
	c.put(raw, slice(10))
	comp := raw
	comp.enc = trace.SegEncFlate
	if c.get(comp) != nil {
		t.Fatal("flate-keyed lookup served a raw-keyed entry")
	}
	if c.get(raw) == nil {
		t.Fatal("raw-keyed entry lost")
	}
	c.put(comp, slice(20))
	if got := c.get(comp); len(got) != 20 {
		t.Fatalf("flate-keyed entry has %d records, want 20", len(got))
	}
	if got := c.get(raw); len(got) != 10 {
		t.Fatalf("raw-keyed entry has %d records, want 10", len(got))
	}
}
