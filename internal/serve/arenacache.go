package serve

import (
	"container/list"
	"sync"

	"atum/internal/obs"
	"atum/internal/par"
	"atum/internal/trace"
)

// Arena cache telemetry, on the global registry: the cache is shared
// across tenants (decoded segments are immutable, so sharing leaks no
// data — keys carry the tenant name, and a tenant can only ask for its
// own traces), and its effectiveness is a property of the daemon, not
// of any one tenant.
var (
	mArenaHits  = obs.Default().Counter("atum_serve_arena_cache_hits_total")
	mArenaMiss  = obs.Default().Counter("atum_serve_arena_cache_misses_total")
	mArenaEvict = obs.Default().Counter("atum_serve_arena_cache_evictions_total")
	mArenaBytes = obs.Default().Gauge("atum_serve_arena_cache_bytes")
)

// arenaKey identifies one decoded unit: a single segment of a stored
// trace. The generation distinguishes re-uploads under the same name,
// so a stale decode can never be served for new bytes. The payload
// encoding is part of the key: a decoded slice cached from a compressed
// segment must never satisfy a lookup that believes the segment is raw
// (or vice versa) — the generation usually separates them already, but
// the key makes the separation structural.
type arenaKey struct {
	tenant string
	trace  string
	gen    uint64
	seg    int
	enc    uint8
}

// arenaCache is a byte-budgeted LRU of decoded record slices. Analyses
// over stored traces decode each segment at most once while it stays
// resident; repeated sweeps over the same trace — the daemon's hot path
// — skip decode entirely.
type arenaCache struct {
	mu     sync.Mutex
	budget int64
	used   int64
	lru    *list.List // front = most recent; values are *arenaEntry
	byKey  map[arenaKey]*list.Element
}

type arenaEntry struct {
	key   arenaKey
	recs  []trace.Word
	bytes int64
}

func newArenaCache(budgetBytes int64) *arenaCache {
	return &arenaCache{budget: budgetBytes, lru: list.New(), byKey: map[arenaKey]*list.Element{}}
}

// get returns the cached slice (callers must treat it as immutable) or
// nil on miss.
func (c *arenaCache) get(k arenaKey) []trace.Word {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el := c.byKey[k]; el != nil {
		c.lru.MoveToFront(el)
		mArenaHits.Inc()
		return el.Value.(*arenaEntry).recs
	}
	mArenaMiss.Inc()
	return nil
}

// put inserts a decoded slice and evicts from the cold end until the
// budget holds again. A slice larger than the whole budget is not
// cached at all (it would only evict everything to be evicted next).
func (c *arenaCache) put(k arenaKey, recs []trace.Word) {
	sz := int64(cap(recs)) * trace.RecordBytes // a Word is RecordBytes
	if sz > c.budget {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.byKey[k]; ok {
		return // racing decoders; first one wins
	}
	for c.used+sz > c.budget {
		el := c.lru.Back()
		if el == nil {
			break
		}
		ent := el.Value.(*arenaEntry)
		c.lru.Remove(el)
		delete(c.byKey, ent.key)
		c.used -= ent.bytes
		mArenaEvict.Inc()
	}
	ent := &arenaEntry{key: k, recs: recs, bytes: sz}
	c.byKey[k] = c.lru.PushFront(ent)
	c.used += sz
	mArenaBytes.Set(float64(c.used))
}

// segments assembles the decoded chunks of every segment of f — cache
// hits as-is, misses decoded via f.Segment (in parallel across workers)
// and inserted — in segment order.
func (c *arenaCache) segments(k arenaKey, f *trace.File, workers int) ([][]trace.Word, error) {
	segs := f.Segments()
	n := len(segs)
	chunks := make([][]trace.Word, n)
	var miss []int
	for i := 0; i < n; i++ {
		sk := k
		sk.seg = i
		sk.enc = segs[i].Encoding
		if recs := c.get(sk); recs != nil {
			chunks[i] = recs
			continue
		}
		miss = append(miss, i)
	}
	if len(miss) == 0 {
		return chunks, nil
	}
	decoded, err := par.Map(workers, len(miss), func(j int) ([]trace.Word, error) {
		return f.Segment(miss[j])
	})
	if err != nil {
		return nil, err
	}
	for j, recs := range decoded {
		sk := k
		sk.seg = miss[j]
		sk.enc = segs[miss[j]].Encoding
		c.put(sk, recs)
		chunks[miss[j]] = recs
	}
	return chunks, nil
}
