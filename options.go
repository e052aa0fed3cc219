package cooper

import "cooper/internal/core"

// Grouped configuration types. Config is what the functional options
// below assemble; it can also be built literally and passed to the
// internal core.NewFramework by advanced users vendoring the module.
type (
	// Config is the grouped framework configuration: hardware and seed at
	// the top level, with Market, Pipeline, and Observe sub-configs. The
	// zero value reproduces the paper's setup (SMR policy, 25% profiling,
	// 10 CMPs, unsharded market).
	Config = core.Config
	// MarketConfig groups the colocation market knobs: policy, the
	// stability threshold alpha, and market sharding.
	MarketConfig = core.MarketConfig
	// PipelineConfig groups the epoch pipeline's execution knobs:
	// workers, profiling fraction, and oracle mode.
	PipelineConfig = core.PipelineConfig
	// ObserveConfig groups the observability attachments.
	ObserveConfig = core.ObserveConfig
)

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

// WithChurnThreshold sets the fraction of the population whose
// cumulative churn since the last full clear forces the next streaming
// epoch to re-match from scratch. t <= 0 uses the default 10%
// (rematch.DefaultChurnThreshold).
func WithChurnThreshold(t float64) Option {
	return func(c *Config) { c.Market.ChurnThreshold = t }
}

// WithWorkers bounds the goroutines each of the pipeline's fan-out
// phases runs. <= 0 means GOMAXPROCS; 1 forces the serial pipeline. Any value
// produces bit-identical results.
func WithWorkers(n int) Option {
	return func(c *Config) { c.Pipeline.Workers = n }
}

// WithSampleFraction sets the share of the colocation space profiled
// offline (default 0.25, the paper's operating point).
func WithSampleFraction(frac float64) Option {
	return func(c *Config) { c.Pipeline.SampleFraction = frac }
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

// WithMachine sets the CMP model shared by every node (default
// DefaultCMP()).
func WithMachine(m CMP) Option {
	return func(c *Config) { c.Machine = m }
}

// WithMachines sets the cluster size in CMPs (default 10, the paper's
// five dual-socket nodes).
func WithMachines(n int) Option {
	return func(c *Config) { c.Machines = n }
}

// WithCatalog replaces the paper's Table I catalog with a custom one
// built by BuildCatalog against the same machine.
func WithCatalog(jobs []Job) Option {
	return func(c *Config) { c.Catalog = jobs }
}

// WithConfig merges a literal Config wholesale, for callers that prefer
// the struct form; options after it still apply on top.
func WithConfig(cfg Config) Option {
	return func(c *Config) { *c = cfg }
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
