package sweep

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"atum/internal/cache"
	"atum/internal/tlbsim"
	"atum/internal/trace"
)

func TestConfigNaming(t *testing.T) {
	// Every simulator configuration names itself the same way — label
	// when set, geometry otherwise — and registers under that name.
	cases := []struct {
		cfg  interface{ Name() string }
		want string
	}{
		{cache.Config{SizeBytes: 8 << 10, BlockBytes: 16, Assoc: 2}, "8KB/16B/2-way"},
		{cache.Config{Label: "std", SizeBytes: 8 << 10, BlockBytes: 16, Assoc: 2}, "std"},
		{tlbsim.Config{Entries: 256, Assoc: 2}, "256-entry/2-way"},
		{tlbsim.Config{Label: "tb", Entries: 256, Assoc: 2}, "tb"},
		{cache.HierarchyConfig{
			L1: cache.Config{SizeBytes: 1 << 10, BlockBytes: 16, Assoc: 1},
			L2: cache.Config{SizeBytes: 16 << 10, BlockBytes: 16, Assoc: 4},
		}, "1KB/16B/1-way+16KB/16B/4-way"},
	}
	for _, c := range cases {
		if got := c.cfg.Name(); got != c.want {
			t.Errorf("Name() = %q, want %q", got, c.want)
		}
	}
}

func TestRunGeneric(t *testing.T) {
	// run is the generic loop the per-simulator helpers wrap: any
	// configuration type with a Name, any Sim, results in configuration
	// order for any worker count, every simulator fed every record once.
	src := trace.Records(stressTrace(5_000))
	cfgs := []cache.Config{
		{SizeBytes: 1 << 10, BlockBytes: 16, Assoc: 1},
		{SizeBytes: 2 << 10, BlockBytes: 16, Assoc: 1},
		{SizeBytes: 4 << 10, BlockBytes: 16, Assoc: 1},
	}
	newSim := func(cfg cache.Config) (Sim[string], error) { return &nameSim{name: cfg.Name()}, nil }
	for _, workers := range []int{1, 2, 8} {
		names, err := run(src, cfgs, workers, newSim)
		if err != nil {
			t.Fatal(err)
		}
		want := []string{"1KB/16B/1-way:5000", "2KB/16B/1-way:5000", "4KB/16B/1-way:5000"}
		if !reflect.DeepEqual(names, want) {
			t.Errorf("workers=%d: %v", workers, names)
		}
	}
	// A configuration that cannot build its simulator fails the run.
	boom := errors.New("no such cache")
	_, err := run(src, cfgs, 1, func(cfg cache.Config) (Sim[string], error) {
		if cfg.SizeBytes == 2<<10 {
			return nil, boom
		}
		return newSim(cfg)
	})
	if !errors.Is(err, boom) {
		t.Errorf("run returned %v, want %v", err, boom)
	}
}

// nameSim reports its configuration's name and how many records it saw.
type nameSim struct {
	name string
	n    int
}

func (s *nameSim) Feed(chunk []trace.Record) error { s.n += len(chunk); return nil }
func (s *nameSim) Result() (string, error)         { return fmt.Sprintf("%s:%d", s.name, s.n), nil }
