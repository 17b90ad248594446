package trace

import "sync"

// Source is a read-only, in-order stream of trace records that can be
// consumed by any number of goroutines concurrently — the contract the
// parallel sweep engine (internal/sweep) relies on to replay one decoded
// trace through many simulator configurations at once. Implementations
// must not mutate the chunks they hand out, and callers must not either.
type Source interface {
	// NumRecords returns the total record count.
	NumRecords() int
	// EachChunk calls fn with successive non-empty sub-slices of the
	// trace, in record order, until the trace is exhausted or fn errors.
	EachChunk(fn func([]Record) error) error
}

// Records adapts a plain record slice to Source (one chunk, no copy).
type Records []Record

// NumRecords implements Source.
func (r Records) NumRecords() int { return len(r) }

// EachChunk implements Source.
func (r Records) EachChunk(fn func([]Record) error) error {
	if len(r) == 0 {
		return nil
	}
	return fn(r)
}

// arenaChunkRecords sizes the chunks Arena.Filter copies into: 64K
// records (768 KB) keeps allocation spikes bounded — the append-doubling
// of a contiguous copy transiently holds a trace twice — while staying
// far above per-chunk overhead.
const arenaChunkRecords = 1 << 16

// Arena is a shared, read-only record store decoded (or captured) once
// and replayed many times: the fan-out side of the one-pass-many-configs
// methodology. Records live in chunks — one per decoded segment — so a
// decode never re-copies what it has already decoded. An Arena is safe
// for concurrent readers; it has no mutating methods after
// construction.
type Arena struct {
	chunks [][]Record
	n      int

	flattenOnce sync.Once
	flat        []Record
}

// NewArena wraps an existing record slice as a single-chunk arena
// without copying. The caller must not mutate recs afterwards.
func NewArena(recs []Record) *Arena {
	a := &Arena{}
	if len(recs) > 0 {
		a.chunks = [][]Record{recs}
		a.n = len(recs)
	}
	return a
}

// NewArenaFromChunks wraps pre-decoded record chunks as an arena
// without copying: the fan-in side for callers (File.Arena, the serve
// layer's segment cache) that hold per-segment slices and want the
// one-pass-many-configs replay contract over them. Empty chunks are
// skipped; the caller must not mutate any chunk afterwards.
func NewArenaFromChunks(chunks [][]Record) *Arena {
	a := &Arena{}
	for _, c := range chunks {
		if len(c) == 0 {
			continue
		}
		a.chunks = append(a.chunks, c)
		a.n += len(c)
	}
	return a
}

// NumRecords implements Source.
func (a *Arena) NumRecords() int { return a.n }

// EachChunk implements Source.
func (a *Arena) EachChunk(fn func([]Record) error) error {
	for _, c := range a.chunks {
		if err := fn(c); err != nil {
			return err
		}
	}
	return nil
}

// Filter returns a new arena holding only the records keep accepts,
// built chunk by chunk. The receiver is not modified.
func (a *Arena) Filter(keep func(Record) bool) *Arena {
	out := &Arena{}
	cur := make([]Record, 0, arenaChunkRecords)
	for _, c := range a.chunks {
		for _, r := range c {
			if !keep(r) {
				continue
			}
			cur = append(cur, r)
			if len(cur) == cap(cur) {
				out.chunks = append(out.chunks, cur)
				out.n += len(cur)
				cur = make([]Record, 0, arenaChunkRecords)
			}
		}
	}
	if len(cur) > 0 {
		out.chunks = append(out.chunks, cur[:len(cur):len(cur)])
		out.n += len(cur)
	}
	return out
}

// FilterUser returns the user-mode subset (the records UserRecord
// keeps).
func (a *Arena) FilterUser() *Arena { return a.Filter(UserRecord) }

// Flatten returns the records as one contiguous slice. A single-chunk
// arena returns its chunk directly; otherwise the flattening is done
// once and cached (so analyses that need a slice pay the copy at most
// once). The result is read-only like the arena itself. Safe for
// concurrent callers.
func (a *Arena) Flatten() []Record {
	if len(a.chunks) == 1 {
		return a.chunks[0]
	}
	a.flattenOnce.Do(func() {
		flat := make([]Record, 0, a.n)
		for _, c := range a.chunks {
			flat = append(flat, c...)
		}
		a.flat = flat
	})
	return a.flat
}
