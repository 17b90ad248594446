package cache

import "fmt"

// RunOptions controls trace-driven simulation.
type RunOptions struct {
	// IncludePTE feeds translation-microcode references to the data
	// cache (they are real bus references on the 8200).
	IncludePTE bool
	// SampleSets enables 1-in-K block sampling: only references whose
	// block address is congruent to SampleOffset mod SampleSets are
	// simulated (marker records always pass). 0 or 1 simulates
	// everything. When SampleSets divides the set count this is exact
	// set sampling — a cheap preview whose per-set behaviour matches the
	// full simulation exactly (property-tested in sample_test.go).
	SampleSets uint32
	// SampleOffset selects the sampled residue class; must be below
	// SampleSets when sampling is on.
	SampleOffset uint32
}

// Result pairs a configuration with its simulation outcome.
type Result struct {
	Config Config
	Stats  Stats
}

// SizeConfigs derives one configuration per capacity from base (same
// block/assoc/policies). Experiments, the CLIs and the benchmark build
// their sweeps from these lists, so every caller simulates — and names —
// exactly the same configurations.
func SizeConfigs(base Config, sizes []uint32) []Config {
	out := make([]Config, 0, len(sizes))
	for _, sz := range sizes {
		cfg := base
		cfg.SizeBytes = sz
		// An unlabelled base stays unlabelled: Name() then reports the
		// geometry, which already encodes the swept parameter.
		if base.Label != "" {
			cfg.Label = fmt.Sprintf("%s-%dKB", base.Label, sz>>10)
		}
		out = append(out, cfg)
	}
	return out
}

// BlockConfigs derives one configuration per block size at fixed capacity.
func BlockConfigs(base Config, blocks []uint32) []Config {
	out := make([]Config, 0, len(blocks))
	for _, b := range blocks {
		cfg := base
		cfg.BlockBytes = b
		if base.Label != "" {
			cfg.Label = fmt.Sprintf("%s-%dB", base.Label, b)
		}
		out = append(out, cfg)
	}
	return out
}

// AssocConfigs derives one configuration per way count at fixed capacity.
func AssocConfigs(base Config, ways []uint32) []Config {
	out := make([]Config, 0, len(ways))
	for _, w := range ways {
		cfg := base
		cfg.Assoc = w
		if base.Label != "" {
			cfg.Label = fmt.Sprintf("%s-%dway", base.Label, w)
		}
		out = append(out, cfg)
	}
	return out
}
