package core

import (
	"cooper/internal/arch"
	"cooper/internal/market"
	"cooper/internal/telemetry"
	"cooper/internal/workload"
)

// MarketConfig groups the knobs of the colocation market itself — policy,
// stability threshold, sharding, and the streaming market — which the
// market engine reads directly (see market.Config for the fields).
type MarketConfig = market.Config

// PipelineConfig groups the epoch pipeline's execution knobs: worker
// budget, profiling share and oracle mode. Prediction always completes
// with recommend.Default(). An epoch's deadline is its context's
// (RunEpochContext, StreamEpochContext).
type PipelineConfig struct {
	// Workers bounds the goroutines each of the pipeline's fan-out phases
	// runs (profiling campaign, matrix completion, oracle computation,
	// per-shard matching). <= 0 means GOMAXPROCS; 1 forces
	// the serial pipeline. Any value produces bit-identical results —
	// parallelism never perturbs the simulation.
	Workers int
	// SampleFraction is the share of the colocation space profiled
	// offline. Zero means 0.25, the paper's operating point.
	SampleFraction float64
	// Oracle skips profiling and prediction, giving the policy exact
	// analytic penalties — the "oracular knowledge" configuration the
	// paper compares collaborative filtering against.
	Oracle bool
}

// ObserveConfig groups the observability attachments.
type ObserveConfig struct {
	// Telemetry, when non-nil, receives phase spans, pipeline metrics,
	// and flight-recorder events from every layer the framework touches.
	// Nil (the default) disables observability at near-zero cost.
	Telemetry *telemetry.Telemetry
}

// Config configures a Framework, grouped by concern: the simulated
// hardware, the market being cleared, the pipeline clearing it, and what
// is observed along the way. The zero value is a runnable default (the
// paper's catalog, machines, policy, and operating point).
type Config struct {
	// Machine is the CMP model shared by every node. Zero value means
	// arch.DefaultCMP().
	Machine arch.CMP
	// Machines is the cluster size in CMPs. Zero means 10 (the paper's
	// five dual-socket nodes).
	Machines int
	// Seed drives all randomness (profiling noise, sampling, SMR
	// partitions, per-shard RNG streams).
	Seed int64
	// Sim overrides the profiling simulation config (zero value uses a
	// short, noisy default suitable for experiments).
	Sim arch.SimConfig
	// Catalog overrides the built-in Table I catalog with a custom one
	// (built via workload.BuildCatalog against the same Machine). Nil uses
	// the paper's 20 jobs.
	Catalog []workload.Job

	Market   MarketConfig
	Pipeline PipelineConfig
	Observe  ObserveConfig
}

func (c Config) withDefaults() Config {
	if c.Machine.Cores == 0 {
		c.Machine = arch.DefaultCMP()
	}
	if c.Machines == 0 {
		c.Machines = 10
	}
	if c.Pipeline.SampleFraction == 0 {
		c.Pipeline.SampleFraction = 0.25
	}
	if c.Sim == (arch.SimConfig{}) {
		// Profiling runs long enough to average out phase behaviour, as
		// the paper's minutes-long profiled executions do.
		c.Sim = arch.SimConfig{DurationS: 30, StepS: 1, PhaseNoise: 0.05, PhaseCorr: 0.6}
	}
	return c
}
