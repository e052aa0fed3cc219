// Package cooper is a Go implementation of Cooper, the game-theoretic
// task-colocation framework of Llull, Fan, Zahedi and Lee (HPCA 2017).
//
// Cooper colocates pairs of batch tasks on shared chip multiprocessors
// while balancing performance with fairness: it profiles a sparse sample
// of colocations, predicts each job's preferences over co-runners with
// collaborative filtering, computes stable matchings (stable marriage or
// stable roommates) between agents, and lets agents assess assignments
// and recommend strategic action — participate, or break away with a
// mutually preferred partner.
//
// # Quick start
//
//	f, err := cooper.New(cooper.WithPolicy(cooper.SMR()), cooper.WithSeed(42))
//	if err != nil { ... }
//	pop := f.SamplePopulation(1000, cooper.Uniform())
//	report, err := f.RunEpoch(pop)
//
// The report carries the colocation assignment, per-agent penalties,
// agents' break-away recommendations, and the cluster dispatch summary.
// Configuration is functional options over the grouped Config
// (Market/Pipeline/Observe).
//
// # Scale
//
// At populations beyond a few thousand agents, shard the market:
//
//	f, err := cooper.New(cooper.WithOracle(), cooper.WithShards(64))
//
// Agents are consistent-hashed into shards, each shard is matched in
// parallel, and a bounded cross-shard refinement pass trades blocking
// pairs across shard boundaries. Reports stay byte-identical at any
// worker count for a fixed shard count.
//
// # Concurrency and cancellation
//
// The pipeline's hot phases — the profiling campaign, penalty-matrix
// completion, and the sharded market's per-shard clears — fan out across
// at most WithWorkers goroutines each (<= 0 means GOMAXPROCS, 1 forces
// the serial path). Parallelism never perturbs results: every
// fan-out writes to its own slot and seeds its own randomness, so reports
// are bit-identical at any worker count. Contention solves are memoized
// in a pair-penalty cache: the oracle matrix fills it once, epochs read
// true penalties from that matrix, and dispatch consults the cache once
// per distinct colocation.
//
// Context-aware variants of the entry points — Framework.RunEpochContext
// and Driver.RunContext — check their context between pipeline phases and
// inside fan-outs; a fired context aborts the run with an error wrapping
// ErrCanceled. Framework.Close drains in-flight epochs and rejects new
// ones with ErrClosed, giving daemons a clean shutdown path.
//
// # Errors
//
// Failures that callers branch on are typed sentinels, tested with
// errors.Is:
//
//	_, err := f.RunEpochContext(ctx, pop)
//	if errors.Is(err, cooper.ErrCanceled) { ... } // ctx fired mid-pipeline
//	if errors.Is(err, cooper.ErrClosed) { ... }   // Close was called
//
// The package is a facade over the internal packages that implement the
// substrates: the CMP contention simulator (internal/arch), workload
// catalog (internal/workload), profiler (internal/profiler), preference
// predictor (internal/recommend), stable matching (internal/matching),
// cooperative game theory (internal/game), colocation policies
// (internal/policy), agents (internal/agent), cluster dispatch
// (internal/cluster), and the deterministic fan-out (internal/parallel).
package cooper

import (
	"context"
	"math/rand"

	"cooper/internal/agent"
	"cooper/internal/arch"
	"cooper/internal/coordinator"
	"cooper/internal/core"
	"cooper/internal/game"
	"cooper/internal/matching"
	"cooper/internal/policy"
	"cooper/internal/recommend"
	"cooper/internal/stats"
	"cooper/internal/telemetry"
	"cooper/internal/workload"
)

// Core framework types.
type (
	// Framework is a ready-to-run Cooper instance.
	Framework = core.Framework
	// EpochReport is the outcome of one scheduling epoch.
	EpochReport = core.EpochReport
	// Churn is one streaming epoch's population change (jobs joining,
	// stable agent IDs leaving), consumed by Framework.StreamEpoch under
	// WithRematch.
	Churn = core.Churn
	// RematchSummary reports how a streaming epoch absorbed its churn:
	// incremental repair or threshold-forced full re-match.
	RematchSummary = core.RematchSummary
)

// Hardware and workload types.
type (
	// CMP models one chip multiprocessor.
	CMP = arch.CMP
	// TaskModel is a task's microarchitectural description.
	TaskModel = arch.TaskModel
	// Job is one catalog application (the paper's Table I).
	Job = workload.Job
	// Population is a sampled set of agents' jobs.
	Population = workload.Population
)

// Game and matching types.
type (
	// Matching records co-runner assignments; Unmatched marks solo
	// agents.
	Matching = matching.Matching
	// Policy assigns colocations from a penalty matrix.
	Policy = policy.Policy
	// Recommendation is an agent's strategic advice to its user.
	Recommendation = agent.Recommendation
	// Predictor is the collaborative-filtering preference predictor.
	Predictor = recommend.Predictor
)

// Unmatched marks an agent with no co-runner in a Matching.
const Unmatched = matching.Unmatched

// Agent actions.
const (
	// Participate in the shared system.
	Participate = agent.Participate
	// BreakAway from the assigned colocation.
	BreakAway = agent.BreakAway
)

// Sentinel errors, tested with errors.Is (see the package doc).
var (
	// ErrCanceled reports that a context-aware pipeline run
	// (RunEpochContext, Driver.RunContext) was aborted by its context.
	ErrCanceled = core.ErrCanceled
	// ErrClosed reports that the Framework was Closed and accepts no more
	// epochs.
	ErrClosed = core.ErrClosed
)

// New builds a Framework: it calibrates the 20-job catalog on the
// machine, runs the offline profiling campaign, and trains the
// preference predictor. Configure it with functional options:
//
//	cooper.New(cooper.WithPolicy(cooper.SR()), cooper.WithShards(16))
//
// With no options it reproduces the paper's setup (SMR policy, 25%
// profiling, 10 CMPs, unsharded market).
func New(opts ...Option) (*Framework, error) {
	return core.NewFramework(context.Background(), buildConfig(opts))
}

// Observability.

type (
	// Telemetry bundles a metrics registry with an epoch trace; pass one
	// with WithTelemetry to observe the pipeline. Nil disables
	// observability at near-zero cost.
	Telemetry = telemetry.Telemetry
	// MetricsRegistry holds counters, gauges, and histograms.
	MetricsRegistry = telemetry.Registry
	// TelemetrySnapshot is a point-in-time copy of all metrics plus the
	// span tree; obtain one from Framework.Snapshot().
	TelemetrySnapshot = telemetry.Snapshot
)

// NewTelemetry returns an enabled telemetry handle with an empty registry
// and a fresh root span, ready for WithTelemetry.
func NewTelemetry() *Telemetry { return telemetry.New() }

// DefaultCMP returns the paper's evaluation server model: a 12-core Xeon
// E5-2697 v2-class CMP with a 30 MB shared LLC and ~59.7 GB/s of memory
// bandwidth.
func DefaultCMP() CMP { return arch.DefaultCMP() }

// Catalog builds the paper's Table I as 20 synthetic jobs calibrated so
// each job's standalone memory bandwidth on machine m matches the paper's
// measured value.
func Catalog(m CMP) ([]Job, error) { return workload.Catalog(m) }

// Colocation policies, by the paper's abbreviations.

// Greedy returns GR: assign each task sequentially to the processor that
// minimizes contention given prior assignments.
func Greedy() Policy { return policy.Greedy{} }

// Complementary returns CO: pair the most memory-intensive tasks with the
// least intensive ones.
func Complementary() Policy { return policy.Complementary{} }

// SMP returns Stable Marriage Partition: partition by memory intensity,
// then find a stable marriage between the halves.
func SMP() Policy { return policy.StableMarriagePartition{} }

// SMR returns Stable Marriage Random — the paper's recommended policy:
// partition randomly, then find a stable marriage between the halves.
func SMR() Policy { return policy.StableMarriageRandom{} }

// SR returns Stable Roommate: Irving's algorithm over the whole
// population with greedy completion when no stable assignment exists.
func SR() Policy { return policy.StableRoommate{} }

// Threshold returns the related-work baseline that colocates a pair only
// when both penalties stay under tolerance, spending extra machines
// otherwise.
func Threshold(tolerance float64) Policy { return policy.Threshold{Tolerance: tolerance} }

// Population mixes (the densities of the paper's Figure 11).

// Mix is a sampling density over the catalog ordered by memory intensity.
type Mix = stats.Sampler

// Uniform returns the mix in which every job is represented equally.
func Uniform() Mix { return stats.Uniform{} }

// BetaLow returns the mix skewed toward less memory-intensive jobs.
func BetaLow() Mix { return stats.BetaLow() }

// BetaHigh returns the mix skewed toward memory-intensive jobs.
func BetaHigh() Mix { return stats.BetaHigh() }

// Gaussian returns the mix concentrated on moderate jobs.
func Gaussian() Mix { return stats.Gaussian{Mu: 0.5, Sigma: 0.15} }

// Matching algorithms (reusable outside the framework).

// StableMarriage runs proposer-optimal Gale-Shapley deferred acceptance
// between two equally sized sets with complete preference lists.
func StableMarriage(proposerPrefs, receiverPrefs [][]int) ([]int, error) {
	return matching.StableMarriage(proposerPrefs, receiverPrefs)
}

// BlockingPairs returns the agent pairs that would break away from match:
// pairs whose members both improve by more than alpha by pairing with
// each other instead.
func BlockingPairs(match Matching, penalties [][]float64, alpha float64) [][2]int {
	return matching.Dense(penalties).BlockingPairs(match, alpha)
}

// Cooperative game theory.

// Shapley computes exact Shapley values for an n-agent coalition game by
// permutation enumeration (n <= 10).
func Shapley(n int, value func(coalition []int) float64) ([]float64, error) {
	return game.Shapley(n, value)
}

// Preference prediction.

// DefaultPredictor returns the collaborative filter Cooper uses (full
// neighborhoods, up to three fill iterations).
func DefaultPredictor() Predictor { return recommend.Default() }

// PreferenceAccuracy computes the paper's Equation 2: the fraction of
// pairwise co-runner orderings that pred gets right against truth.
func PreferenceAccuracy(truth, pred [][]float64) (float64, error) {
	return recommend.PreferenceAccuracy(truth, pred)
}

// Continuous operation (the paper's periodic scheduling epochs).

type (
	// Driver batches arriving jobs into scheduling epochs.
	Driver = coordinator.Driver
	// Arrival is one job arriving at a point in virtual time.
	Arrival = coordinator.Arrival
	// DriverSummary aggregates a driver run.
	DriverSummary = coordinator.Summary
)

// PoissonArrivals generates a Poisson arrival stream over the catalog
// under a workload mix, for feeding a Driver.
func PoissonArrivals(rate, durationS float64, catalog []Job, mix Mix, r *rand.Rand) ([]Arrival, error) {
	return coordinator.PoissonArrivals(rate, durationS, catalog, mix, r)
}
