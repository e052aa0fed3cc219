package cooper

import "cooper/internal/core"

// Config is what the functional options below assemble: hardware and
// seed at the top level, with Market, Pipeline, and Observe sub-configs.
// The zero value reproduces the paper's setup (SMR policy, 25%
// profiling, 10 CMPs, unsharded market).
type Config = core.Config

// Option customizes one aspect of a Framework under construction. Pass
// any number to New; later options win on conflict.
type Option func(*Config)

// WithPolicy selects the colocation policy (Greedy, Complementary, SMP,
// SMR, SR, Threshold). Default: SMR, the paper's
// recommendation.
func WithPolicy(p Policy) Option {
	return func(c *Config) { c.Market.Policy = p }
}

// WithAlpha sets the minimum performance gain for which an agent
// recommends breaking away — and, in a sharded market, the minimum
// mutual gain for a cross-shard refinement trade.
func WithAlpha(alpha float64) Option {
	return func(c *Config) { c.Market.Alpha = alpha }
}

// WithShards splits the colocation market into n consistent-hash shards
// cleared in parallel, with bounded cross-shard refinement reconciling
// the boundaries. n <= 1 keeps the single unsharded market, which
// reproduces the classic pipeline byte-for-byte.
func WithShards(n int) Option {
	return func(c *Config) { c.Market.Shards = n }
}

// WithRematch enables the streaming market: Framework.StreamEpoch
// accepts mid-stream joins and departures and repairs the prior epoch's
// matching incrementally around them (see internal/rematch) instead of
// re-clearing from scratch.
func WithRematch() Option {
	return func(c *Config) { c.Market.Rematch = true }
}

// WithWorkers bounds the goroutines each of the pipeline's fan-out
// phases runs. <= 0 means GOMAXPROCS; 1 forces the serial pipeline. Any value
// produces bit-identical results.
func WithWorkers(n int) Option {
	return func(c *Config) { c.Pipeline.Workers = n }
}

// WithOracle skips profiling and prediction, giving the policy exact
// analytic penalties — the paper's "oracular knowledge" configuration.
func WithOracle() Option {
	return func(c *Config) { c.Pipeline.Oracle = true }
}

// WithTelemetry attaches a telemetry handle: phase spans, pipeline
// metrics, and flight-recorder events from every layer.
func WithTelemetry(t *Telemetry) Option {
	return func(c *Config) { c.Observe.Telemetry = t }
}

// WithSeed sets the seed driving all randomness (profiling noise,
// sampling, SMR partitions, per-shard RNG streams).
func WithSeed(seed int64) Option {
	return func(c *Config) { c.Seed = seed }
}

// WithMachines sets the cluster size in CMPs (default 10, the paper's
// five dual-socket nodes).
func WithMachines(n int) Option {
	return func(c *Config) { c.Machines = n }
}

func buildConfig(opts []Option) Config {
	var cfg Config
	for _, opt := range opts {
		if opt != nil {
			opt(&cfg)
		}
	}
	return cfg
}
