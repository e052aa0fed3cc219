// Package core wires Cooper's components into the end-to-end framework of
// the paper's Figure 6: the system profiler measures standalone and
// sampled colocated runs; the preference predictor completes the sparse
// penalty matrix; a colocation policy matches agents; agents assess their
// assignments and recommend strategic action; and the job dispatcher
// sends participating colocations to the cluster.
package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"cooper/internal/agent"
	"cooper/internal/arch"
	"cooper/internal/cluster"
	"cooper/internal/market"
	"cooper/internal/matching"
	"cooper/internal/parallel"
	"cooper/internal/profiler"
	"cooper/internal/recommend"
	"cooper/internal/rematch"
	"cooper/internal/stats"
	"cooper/internal/telemetry"
	"cooper/internal/workload"
)

// ErrCanceled reports that a pipeline run was aborted by its context
// before completing. Wraps the underlying context error; test with
// errors.Is(err, ErrCanceled).
var ErrCanceled = errors.New("cooper: pipeline canceled")

// ErrClosed reports that the framework was Closed and accepts no more
// epochs. Test with errors.Is(err, ErrClosed).
var ErrClosed = errors.New("cooper: framework closed")

// Framework is a ready-to-run Cooper instance: calibrated catalog,
// profiling database, completed preference model, worker budget, pair
// cache, and cluster.
type Framework struct {
	cfg     Config
	catalog []workload.Job
	db      *profiler.Database
	cluster *cluster.Cluster

	predicted [][]float64 // job-level penalties as agents believe them
	truth     [][]float64 // job-level penalties from the analytic oracle
	iters     int         // predictor iterations used
	kernel    string      // which kernel produced predicted (see EpochSnapshot.Kernel)
	rng       *rand.Rand
	tel       *telemetry.Telemetry
	workers   int // resolved worker budget of the fan-out phases
	cache     *arch.PairCache

	mu       sync.Mutex // guards closed
	closed   bool
	inflight sync.WaitGroup // in-flight epochs, for Close's drain

	// engine clears and repairs the market. Epochs share its RNG, churn
	// ledger and epoch counter, and the cluster's clocks and scratch, so
	// epochMu runs them one at a time.
	engine  *market.Engine
	epochMu sync.Mutex
}

// NewFramework builds a Framework from the grouped Config: it calibrates
// the catalog, runs the offline profiling campaign, and trains the
// preference predictor. The campaign, the training, and the oracle
// computation honor ctx, so a canceled build returns ErrCanceled instead
// of running minutes of simulation.
func NewFramework(ctx context.Context, cfg Config) (*Framework, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Machine.Validate(); err != nil {
		return nil, err
	}
	catalog := cfg.Catalog
	if catalog == nil {
		var err error
		catalog, err = workload.Catalog(cfg.Machine)
		if err != nil {
			return nil, err
		}
	}
	if len(catalog) == 0 {
		return nil, fmt.Errorf("core: empty catalog")
	}
	f := &Framework{
		cfg:     cfg,
		catalog: catalog,
		db:      profiler.NewDatabase(),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		tel:     cfg.Observe.Telemetry,
		workers: parallel.Workers(cfg.Pipeline.Workers),
	}
	f.cache = arch.NewPairCache(cfg.Machine, f.tel.Registry())
	var err error
	f.cluster, err = cluster.New(cfg.Machines, cfg.Machine)
	if err != nil {
		return nil, err
	}
	f.cluster.SetPairCache(f.cache)

	if err := f.train(ctx); err != nil {
		return nil, err
	}
	f.engine = market.New(market.Engine{
		Config:  cfg.Market,
		Workers: f.workers,
		Catalog: catalog,
		Matrix:  f.predicted,
		Rand:    f.rng,
		Tel:     f.tel,
		Source:  telemetry.SnapshotSourceCore,
		Seed:    cfg.Seed,
		Kernel:  f.kernel,
		Assess:  true,
	})
	return f, nil
}

// train fills the oracle matrix and the predicted one agents believe:
// the oracle itself, or the profiling campaign completed by the
// preference predictor.
func (f *Framework) train(ctx context.Context) error {
	cfg, catalog := f.cfg, f.catalog
	var err error
	f.truth, err = profiler.DensePenaltiesContext(ctx, cfg.Machine, catalog,
		f.workers, f.cache)
	if err != nil {
		return wrapCanceled(ctx, err)
	}
	if cfg.Pipeline.Oracle {
		f.predicted = f.truth
		f.kernel = "oracle"
		return nil
	}

	prof := profiler.New(cfg.Machine, f.db, cfg.Seed+1)
	prof.Sim = cfg.Sim
	prof.Tel = f.tel
	prof.Workers = f.workers
	if err := prof.CampaignContext(ctx, catalog, cfg.Pipeline.SampleFraction); err != nil {
		return wrapCanceled(ctx, err)
	}
	sparse, err := profiler.PenaltyMatrix(f.db, catalog)
	if err != nil {
		return err
	}
	reg := f.tel.Registry()
	predict := f.tel.Phase(nil, "predict")
	predict.SetAttr("sparsity", profiler.Sparsity(sparse))
	preRecomputed := reg.Counter("predict.sim_pairs_recomputed").Value()
	pred := recommend.Default()
	pred.Metrics = reg
	pred.Workers = f.workers
	f.kernel = pred.KernelName()
	predict.SetAttr("kernel", f.kernel)
	f.predicted, f.iters, err = pred.CompleteContext(ctx, sparse)
	if err != nil {
		return wrapCanceled(ctx, err)
	}
	predict.SetAttr("fill_iters", f.iters)
	predict.SetAttr("sim_pairs_recomputed", reg.Counter("predict.sim_pairs_recomputed").Value()-preRecomputed)
	f.tel.End(predict)
	return nil
}

// wrapCanceled tags an error with ErrCanceled when ctx was canceled, so
// callers can test cancellation with errors.Is regardless of which
// pipeline layer surfaced it first.
func wrapCanceled(ctx context.Context, err error) error {
	if err == nil {
		return nil
	}
	if ctx.Err() != nil {
		return fmt.Errorf("%w: %v", ErrCanceled, err)
	}
	return err
}

// Close drains the framework: it marks the framework closed and waits
// for in-flight epochs to finish. Further RunEpoch calls return
// ErrClosed. Safe to call more than once and from any goroutine (cooperd
// calls it from its signal handler while an epoch may be mid-dispatch).
func (f *Framework) Close() error {
	f.mu.Lock()
	already := f.closed
	f.closed = true
	f.mu.Unlock()
	if already {
		return nil
	}
	f.inflight.Wait()
	return nil
}

// Workers returns the framework's resolved worker budget.
func (f *Framework) Workers() int { return f.workers }

// PairCache returns the framework's memoized pair-penalty cache.
func (f *Framework) PairCache() *arch.PairCache { return f.cache }

// Catalog returns the calibrated 20-job catalog.
func (f *Framework) Catalog() []workload.Job { return f.catalog }

// PredictedPenalties returns the completed job-level penalty matrix the
// agents believe.
func (f *Framework) PredictedPenalties() [][]float64 { return f.predicted }

// TruePenalties returns the oracle job-level penalty matrix.
func (f *Framework) TruePenalties() [][]float64 { return f.truth }

// PredictorIterations returns how many fill iterations the preference
// predictor used (0 in Oracle mode).
func (f *Framework) PredictorIterations() int { return f.iters }

// Telemetry returns the telemetry handle the framework was built with
// (nil when observability is disabled).
func (f *Framework) Telemetry() *telemetry.Telemetry { return f.tel }

// Snapshot copies the framework's metrics and span tree. With telemetry
// disabled it returns an empty snapshot, so callers need not branch.
func (f *Framework) Snapshot() telemetry.Snapshot { return f.tel.Snapshot() }

// PredictionAccuracy evaluates the paper's Equation 2 on this framework's
// predicted versus true job-level penalties.
func (f *Framework) PredictionAccuracy() (float64, error) {
	return recommend.PreferenceAccuracy(f.truth, f.predicted)
}

// SamplePopulation draws n agents from the catalog with the given mix.
// Any stats.Sampler works — the built-in mixes (stats.Uniform,
// stats.Bimodal, ...) or a custom distribution.
func (f *Framework) SamplePopulation(n int, mix stats.Sampler) workload.Population {
	return workload.Sample(n, f.catalog, mix, f.rng)
}

// EpochReport is the outcome of one scheduling epoch.
type EpochReport struct {
	// Population is the epoch's population. A RunEpoch report's is the
	// caller's; a streaming report's Jobs is a view of the engine's live
	// roster, valid until the next StreamEpoch, which rewrites it in
	// place (copy it to keep it). Every other slice of a report is the
	// report's own.
	Population workload.Population
	Match      matching.Matching
	// Shards is the shard count the epoch's market was cleared with
	// (zero for the single unsharded market), and RefinementRounds /
	// RefinementTrades summarize the cross-shard refinement pass.
	Shards           int
	RefinementRounds int
	RefinementTrades int
	// PredictedPenalty and TruePenalty are per-agent disutilities under
	// the assignment, as predicted by agents and as the oracle knows
	// them.
	PredictedPenalty []float64
	TruePenalty      []float64
	// BlockingPairCount is how many pairs of agents would both gain more
	// than the framework's alpha by leaving their partners for each other
	// (under their predicted preferences), over the whole population in
	// every market mode: Penalties.CountBlockingPairs of the matching.
	BlockingPairCount int
	// BlockingPairs is left nil.
	//
	// Deprecated: read BlockingPairCount, or list the pairs with
	// matching.Penalties.BlockingPairs. The field's last readers are
	// benchmark/epoch.go and benchmark/stream.go, whose replays read
	// len(rep.BlockingPairs).
	BlockingPairs [][2]int
	// assessment is the agents' strategic assessment, a verdict per
	// (class, partner class) cell, which Recommendations and
	// BreakAwayCount read.
	assessment rematch.Assessment
	// Cluster summarizes the dispatch of participating colocations. Each
	// agent runs the catalog row of its job's name, so a population job
	// whose other fields differ from its catalog row (a longer RuntimeS,
	// say) dispatches as the catalog row.
	Cluster cluster.Report
	// AgentIDs maps each index to its stable streaming-market identity
	// (nil for classic RunEpoch epochs, whose agents are their indices).
	// Departures in a later StreamEpoch's Churn name these IDs.
	AgentIDs []int
	// Rematch summarizes how a streaming epoch absorbed its churn (nil
	// for classic epochs).
	Rematch *RematchSummary
}

// RunEpoch plays one round of the colocation game for the population:
// predict preferences, assign colocations, let agents assess them, and
// dispatch the work.
//
// An agent's job is the catalog row its name keys. The penalties the
// market matches on, the predicted and true penalties and the dispatch
// all read that row; of the population's own Job only Name and
// BandwidthGBps are read (by bandwidth-ordered policies and the shard
// ring).
func (f *Framework) RunEpoch(pop workload.Population) (*EpochReport, error) {
	return f.RunEpochContext(context.Background(), pop)
}

// RunEpochContext is RunEpoch with cancellation. The pipeline checks ctx
// between its phases (match, assess, dispatch) and inside the sharded
// market's fan-out, returning an error that wraps ErrCanceled if ctx
// fires. After Close it returns ErrClosed.
func (f *Framework) RunEpochContext(ctx context.Context, pop workload.Population) (*EpochReport, error) {
	return f.epoch(ctx, pop, func(ctx context.Context, ep *market.Epoch) (*market.Round, error) {
		if len(pop.Jobs) == 0 {
			return nil, fmt.Errorf("core: empty population")
		}
		// In-process agents are their epoch-local indices: no stable IDs.
		return ep.Clear(ctx, market.Roster{Jobs: pop.Jobs})
	})
}

// epoch is the one epoch body behind RunEpoch and StreamEpoch: the
// engine matches the round the entry point asks for (a fresh population
// cleared, or churn stepped into the standing matching), then the
// pipeline measures the assignment, reports it, and dispatches it. Any
// error after the round opened the epoch aborts it through the deferred
// Close, so the flight log stays bracketed and the epoch span finished.
func (f *Framework) epoch(ctx context.Context, pop workload.Population,
	round func(context.Context, *market.Epoch) (*market.Round, error)) (*EpochReport, error) {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil, ErrClosed
	}
	f.inflight.Add(1)
	f.mu.Unlock()
	defer f.inflight.Done()
	f.epochMu.Lock()
	defer f.epochMu.Unlock()

	if err := ctx.Err(); err != nil {
		return nil, wrapCanceled(ctx, err)
	}
	ep := f.engine.Begin()
	defer ep.Close()
	r, err := round(ctx, ep)
	if err != nil {
		return nil, wrapCanceled(ctx, err)
	}
	if err := ctx.Err(); err != nil {
		return nil, wrapCanceled(ctx, err)
	}
	pop.Jobs = r.Jobs
	assess := f.tel.Phase(ep.Span(), "assess")

	// True penalties are the oracle matrix read at (own job, partner's
	// job): a pair's contention depends on nothing else, and the matrix
	// holds, bit for bit, what simulating each matched pair on its own CMP
	// would return (policy.TruePenalties, which tests hold this equal to).
	trueP, solos := make([]float64, len(r.Match)), 0
	for i, j := range r.Match {
		if j == matching.Unmatched {
			solos++
		} else {
			trueP[i] = f.truth[r.JobIdx[i]][r.JobIdx[j]]
		}
	}
	predicted, meanPred := r.Penalties()
	rep := &EpochReport{
		Population:        pop,
		Match:             r.Match,
		RefinementRounds:  r.RefinementRounds,
		RefinementTrades:  r.RefinementTrades,
		PredictedPenalty:  predicted,
		TruePenalty:       trueP,
		BlockingPairCount: r.Assessment.BlockingPairs,
		assessment:        r.Assessment,
		AgentIDs:          r.IDs,
	}
	if f.cfg.Market.Shards > 1 {
		rep.Shards = f.cfg.Market.Shards
	}
	if f.tel.EventRing() != nil { // an unobserved epoch builds no events
		for i := range r.Match {
			ep.Assigned(r, i, trueP[i])
		}
	}
	assess.SetAttr("breakaways", rep.BreakAwayCount())
	assess.SetAttr("blocking_pairs", rep.BlockingPairCount)
	f.tel.End(assess)

	// Dispatch: agents participate by default (the paper's
	// implementation), so every colocation goes to the cluster, which runs
	// each agent's catalog row (see RunEpoch).
	if err := ctx.Err(); err != nil {
		return nil, wrapCanceled(ctx, err)
	}
	dispatch := f.tel.Phase(ep.Span(), "dispatch")
	f.cluster.Reset()
	rep.Cluster = f.cluster.RunMatching(f.catalog, r.JobIdx, r.Match)
	dispatch.SetAttr("colocations", solos+(len(r.Match)-solos)/2)
	f.tel.End(dispatch)

	f.tel.Counter("epoch.blocking_pairs").Add(int64(rep.BlockingPairCount))
	f.tel.RecordIn(ep.Span(), telemetry.Event{
		Type: telemetry.EventCacheHitRate, Epoch: ep.Index,
		Agent: -1, Partner: -1, Value: f.cache.HitRate(),
	})
	// The epoch closes on the oracle mean (what the dashboards chart) next
	// to the matrix-derived mean auditors recompute from the snapshot.
	ep.End(market.Summary{
		Penalties:     trueP,
		MeanPenalty:   rep.MeanTruePenalty(),
		MeanPredicted: meanPred,
		BreakAways:    rep.BreakAwayCount(),
	})
	return rep, nil
}

// MeanTruePenalty returns the population-average oracle penalty of the
// epoch.
func (r *EpochReport) MeanTruePenalty() float64 {
	if len(r.TruePenalty) == 0 {
		return 0
	}
	var sum float64
	for _, p := range r.TruePenalty {
		sum += p
	}
	return sum / float64(len(r.TruePenalty))
}

// Recommendations returns the agents' strategic assessments in a fresh
// slice the caller owns: each agent's Action and ExpectedGain against the
// whole population, with no BlockingPartners listed, read from the
// assessment's class table through the epoch's rows and Match.
func (r *EpochReport) Recommendations() []agent.Recommendation {
	return r.assessment.Recommendations()
}

// BreakAwayCount returns how many agents recommended breaking away.
func (r *EpochReport) BreakAwayCount() int { return r.assessment.BreakAways }
