package cooper

import "testing"

// Later options win on conflict, and an option that replaces the whole
// Config leaves the options after it to apply on top.
func TestOptionOrdering(t *testing.T) {
	cfg := buildConfig([]Option{
		WithSeed(1),
		WithShards(4),
		WithSeed(2),
	})
	if cfg.Seed != 2 || cfg.Market.Shards != 4 {
		t.Fatalf("cfg = %+v", cfg)
	}
	base := Config{Seed: 5}
	cfg = buildConfig([]Option{WithShards(8), func(c *Config) { *c = base }, WithWorkers(3)})
	if cfg.Seed != 5 || cfg.Market.Shards != 0 || cfg.Pipeline.Workers != 3 {
		t.Fatalf("wholesale Config merge wrong: %+v", cfg)
	}
}
