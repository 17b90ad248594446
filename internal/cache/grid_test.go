package cache

import (
	"testing"

	"atum/internal/trace"
)

// lru is a write-back, write-allocate LRU cache of 16-byte blocks.
func lru(sets, ways uint32) Config {
	return Config{SizeBytes: sets * ways * 16, BlockBytes: 16, Assoc: ways, Replacement: LRU, WriteAllocate: true}
}

func rd(block uint32) trace.Word {
	return trace.Pack(trace.KindDRead, block*16, 4, 1, true, false, 0)
}

func wr(block uint32) trace.Word {
	return trace.Pack(trace.KindDWrite, block*16, 4, 1, true, false, 0)
}

func ctxSwitch() trace.Word {
	return trace.Pack(trace.KindCtxSwitch, 0, 0, 1, false, false, 1)
}

// TestGridStopRules feeds a GridSim hand-built streams that exercise
// each rule of its walk over the set-count groups, and requires every
// Stats field of every member to equal a per-record Cache loop over that
// configuration alone.
func TestGridStopRules(t *testing.T) {
	flushing := func(cfgs ...Config) []Config {
		for i := range cfgs {
			cfgs[i].FlushOnSwitch = true
		}
		return cfgs
	}
	cases := []struct {
		name string
		cfgs []Config
		recs []trace.Word
	}{{
		// Groups of 4, 16 and 64 sets whose capacities (8, 128 and 64
		// blocks) and configuration order both disagree with their set
		// counts. Block 0 is on top of its set in the 4-set group without
		// repeating the previous reference (0, 1, 0), then on top only
		// from the 16-set group up (0, 4, 0) and only in the 64-set group
		// (0, 16, 0). A walk that starts from any group but the fewest
		// sets stops before a group where block 0 is not on top.
		name: "read_on_top",
		cfgs: []Config{lru(64, 1), lru(16, 1), lru(4, 1), lru(4, 2), lru(16, 8)},
		recs: []trace.Word{
			rd(0), rd(0), rd(1), rd(0), rd(1), rd(0),
			rd(4), rd(0), rd(4), rd(0),
			rd(16), rd(0), rd(16), rd(0), rd(4), rd(16), rd(0), rd(0),
		},
	}, {
		// Block 0 is written (threshold 1), pushed to depth 1 of the 4-set
		// group by block 4 and read back there, which reloads it clean in
		// the 1-way member (threshold 2), while it stays on top of the
		// 16-set group. The next write finds it on top everywhere and must
		// still set the 4-set group's threshold back to 1, so that block
		// 4 pushing it out of the 1-way member writes it back.
		name: "write_on_top_above_threshold",
		cfgs: []Config{lru(4, 1), lru(4, 2), lru(16, 1), lru(16, 2)},
		recs: []trace.Word{
			wr(0), rd(4), rd(0), wr(0), rd(4), rd(0),
			wr(0), wr(0), rd(4), rd(0), rd(0), wr(0), rd(4),
			wr(1), rd(5), rd(1), rd(1), wr(1), wr(1), rd(5), rd(1),
		},
	}, {
		// Blocks on top of every group, clean and dirty, on both sides of
		// a flush: after the flush the same reference is a miss (not a
		// cold one), and each flush writes back and invalidates the
		// members' lines.
		name: "flush_between_tops",
		cfgs: flushing(lru(4, 1), lru(4, 2), lru(16, 1), lru(8, 4)),
		recs: []trace.Word{
			wr(0), rd(0), ctxSwitch(), rd(0), rd(0), wr(0), ctxSwitch(),
			wr(0), wr(0), rd(4), rd(0), ctxSwitch(), ctxSwitch(), rd(0),
			wr(8), rd(8), wr(0), ctxSwitch(), wr(8), rd(0), rd(8),
		},
	}, {
		// The group with the most sets (64 sets, 1 way) is not the largest
		// member (8 sets, 16 ways). Blocks 0, 64 and 128 share a set in
		// every group, so they keep falling out of the 64-set group while
		// the 16-way set holds them; blocks 8..15 are found only in groups
		// with more than 8 sets. Only references found in no group are
		// cold candidates.
		name: "cold_found_nowhere",
		cfgs: []Config{lru(8, 16), lru(64, 1), lru(16, 2), lru(8, 1)},
		recs: []trace.Word{
			rd(0), rd(64), rd(128), rd(0), rd(64), wr(128), rd(0),
			rd(8), rd(9), rd(16), rd(24), rd(32), rd(40), rd(48), rd(56), rd(72), rd(8),
			rd(9), rd(192), rd(256), rd(0), wr(320), rd(384), rd(448), rd(512),
			rd(576), rd(640), rd(704), rd(768), rd(832), rd(896), rd(960), rd(1024), rd(8),
			rd(0), rd(9), rd(1088), rd(0),
		},
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, err := NewGridSim(tc.cfgs, RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if err := g.Feed(tc.recs); err != nil {
				t.Fatal(err)
			}
			got, err := g.Result()
			if err != nil {
				t.Fatal(err)
			}
			for i, c := range tc.cfgs {
				want, err := simulate(tc.recs, c, RunOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if got[i] != want {
					t.Errorf("%s:\n got %+v\nwant %+v", c.Name(), got[i].Stats, want.Stats)
				}
			}
			var stops uint64
			for _, sg := range g.groups {
				stops += sg.stops
			}
			if stops == 0 {
				t.Error("no reference stopped its walk")
			}
		})
	}
}
