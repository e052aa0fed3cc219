package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"cooper"
	"cooper/internal/agent"
	"cooper/internal/arch"
	"cooper/internal/matching"
	"cooper/internal/policy"
	"cooper/internal/rematch"
	"cooper/internal/shard"
	"cooper/internal/telemetry"
	"cooper/internal/workload"
)

// stream-sharded: the streaming market. Epoch 0 admits the whole
// population (set-up); every measured StreamEpoch then joins and departs
// StreamChurn of it. Most epochs repair the standing matching around the
// churn (the primary operation); when cumulative churn passes the
// framework's threshold an epoch clears all shards from scratch (the
// secondary: the shard and match layers used the other way round).
type streamInst struct {
	cfg      *config
	tr       *tracer
	f        *cooper.Framework
	catalog  []workload.Job
	rng      *rand.Rand // churn: the program's inputs
	replay   *rand.Rand // seeds of replayed markets
	ids      []int      // live agents' stable IDs, as of the last report
	epoch    int
	mirror   rematch.Ledger       // traced run: the harness's copy of the framework's ledger
	scratch  *telemetry.Telemetry // sink of the replayed calls, which run traced like the program
	dispatch *dispatcher
}

func setupStream(cfg *config, tr *tracer) (instance, error) {
	in := &streamInst{cfg: cfg, tr: tr,
		rng:    rand.New(rand.NewSource(cfg.seed)),
		replay: rand.New(rand.NewSource(cfg.seed + 1))}
	opts := []cooper.Option{cooper.WithShards(cfg.sizes.StreamShards), cooper.WithRematch(), cooper.WithSeed(programSeed)}
	if tr != nil {
		opts = append(opts, cooper.WithTelemetry(cooper.NewTelemetry()))
	}
	var err error
	if in.f, err = cooper.New(opts...); err != nil {
		return nil, err
	}
	in.catalog = in.f.Catalog()
	base := evenPopulation(cfg.sizes.StreamAgents, in.catalog, in.rng)
	if tr != nil {
		in.scratch = telemetry.New()
		if in.dispatch, err = newDispatcher(arch.DefaultCMP(), in.f.PairCache()); err != nil {
			return nil, err
		}
		replayFramework(tr, cfg.sizes.StreamAgents, in.catalog, opts[:3]...)
		in.clearSpeedup(base)
	}
	// Epoch 0: the cold full clear that admits everyone.
	m := &measurement{}
	if _, err := in.step(m, cooper.Churn{Join: base.Jobs}, nil); err != nil {
		return nil, err
	}
	if m.failures > 0 {
		return nil, fmt.Errorf("epoch 0: %s", m.problems[0])
	}
	return in, nil
}

func (in *streamInst) close() error { return in.f.Close() }

// churn draws one epoch's joins and departures from the seed.
func (in *streamInst) churn() cooper.Churn {
	k := max(1, int(in.cfg.sizes.StreamChurn*float64(in.cfg.sizes.StreamAgents)))
	depart := make([]int, k)
	for i, p := range in.rng.Perm(len(in.ids))[:k] {
		depart[i] = in.ids[p]
	}
	return cooper.Churn{
		Join:   workload.Sample(k, in.catalog, cooper.Uniform(), in.rng).Jobs,
		Depart: depart,
	}
}

func (in *streamInst) measure(d time.Duration) (*measurement, error) {
	m := &measurement{}
	digest := newMatchDigest()
	w := openWindow(d)
	epochs := 0
	for w.open() {
		rep, err := in.step(m, in.churn(), digest)
		if err != nil {
			return nil, err // the ledger is out of step: nothing after this epoch means anything
		}
		m.penalty.add(rep.MeanTruePenalty())
		m.agents += float64(len(rep.Match))
		epochs++
	}
	w.close(m)
	m.digest = digest.String()
	telemetryCounts(in.tr, in.f, in.epoch, float64(in.epoch*in.cfg.sizes.StreamAgents))
	return m, nil
}

// step plays one StreamEpoch, files it as repair or full, checks it, and in
// the traced run replays its layers.
func (in *streamInst) step(m *measurement, churn cooper.Churn, digest *matchDigest) (*cooper.EpochReport, error) {
	span := in.tr.epoch(in.epoch)
	defer span.Finish()
	in.epoch++

	var rep *cooper.EpochReport
	runSpan := span.Child("cooper.StreamEpoch")
	start := time.Now()
	rep, err := in.f.StreamEpoch(churn)
	took := time.Since(start)
	runSpan.Finish()
	if err != nil {
		return nil, fmt.Errorf("stream epoch %d: %w", in.epoch-1, err)
	}
	runSpan.SetAttr("mode", rep.Rematch.Mode)
	m.attempted++
	if rep.Rematch.Mode == "repair" {
		m.op.addDur(took)
	} else {
		m.alt.addDur(took)
	}
	in.ids = rep.AgentIDs
	if digest != nil {
		digest.add(rep.Match)
	}
	if in.cfg.check {
		in.check(m, rep)
	}
	if in.tr != nil {
		if err := in.replayEpoch(span, churn, rep, took); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

func (in *streamInst) check(m *measurement, rep *cooper.EpochReport) {
	// A shard with an odd head count leaves one agent for the cross-shard
	// passes; they pair all but at most one per shard.
	checkReport(m, rep, in.f, in.cfg.sizes.StreamShards)
	if len(rep.AgentIDs) != len(rep.Match) {
		m.failf("stream epoch: %d agent IDs for %d agents", len(rep.AgentIDs), len(rep.Match))
	}
}

func (in *streamInst) market(workers int, ids []int, span *telemetry.Span) *shard.Market {
	return &shard.Market{
		Tel:                 in.scratch,
		Span:                span,
		Shards:              in.cfg.sizes.StreamShards,
		Policy:              cooper.SMR(),
		Workers:             workers,
		Seed:                in.replay.Int63(),
		IDs:                 ids,
		SkipRecommendations: true,
	}
}

// clearSpeedup times a full clear of the base population serially and at
// the framework's worker count.
func (in *streamInst) clearSpeedup(base workload.Population) {
	jobIdx, err := populationRows(in.catalog, base)
	if err != nil {
		return
	}
	sp := in.tr.root.Child("replay.clear_speedup")
	clear := func(workers int) time.Duration {
		var best time.Duration
		for r := 0; r < 2; r++ {
			d := in.tr.timedIn(sp, fmt.Sprintf("shard.Market.Clear[workers=%d]", workers), "", func(call *telemetry.Span) {
				in.market(workers, nil, call).Clear(context.Background(), base.Jobs, jobIdx, in.f.PredictedPenalties())
			})
			if r == 0 || d < best {
				best = d
			}
		}
		return best
	}
	serial, parallel := clear(1), clear(in.f.Workers())
	sp.Finish()
	in.tr.set("shard.clear_speedup_workers", float64(serial)/float64(parallel))
}

// replayEpoch mirrors the framework's ledger and times, on the epoch's own
// delta, each public call StreamEpoch makes on the sharded path.
func (in *streamInst) replayEpoch(span *telemetry.Span, churn cooper.Churn, rep *cooper.EpochReport, epoch time.Duration) error {
	tr := in.tr
	sp := span.Child("replay")
	defer sp.Finish()
	full := rep.Rematch.Mode == "full"

	joinPop := workload.Population{Jobs: churn.Join}
	joinRows, err := populationRows(in.catalog, joinPop)
	if err != nil {
		return err
	}
	var delta *rematch.Delta
	sum := tr.timed(sp, "rematch.Ledger.Apply", "rematch.ledger_apply_ms_p50", func() {
		delta, err = in.mirror.Apply(joinRows, churn.Depart)
	})
	if err != nil {
		return fmt.Errorf("mirror ledger: %w", err)
	}
	if len(delta.Agents) != len(rep.Match) {
		return fmt.Errorf("mirror ledger holds %d agents, the framework %d", len(delta.Agents), len(rep.Match))
	}
	jobIdx := make([]int, len(delta.Agents))
	ids := make([]int, len(delta.Agents))
	for i, a := range delta.Agents {
		jobIdx[i], ids[i] = a.Job, a.ID
	}
	jobs := rep.Population.Jobs
	matrix := in.f.PredictedPenalties()
	if full {
		var res *shard.Result
		sum += tr.timedIn(sp, "shard.Market.Clear", "shard.clear_ms_p50", func(call *telemetry.Span) {
			res, err = in.market(in.f.Workers(), ids, call).Clear(context.Background(), jobs, jobIdx, matrix)
		})
		if err == nil {
			tr.observe("shard.imbalance", imbalance(res.Groups))
		}
		tr.observe("shard.refine_rounds", float64(rep.RefinementRounds))
		tr.observe("shard.refine_trades", float64(rep.RefinementTrades))
	} else {
		sum += tr.timedIn(sp, "shard.Market.Repair", "shard.repair_ms_p50", func(call *telemetry.Span) {
			_, err = in.market(in.f.Workers(), ids, call).Repair(context.Background(), jobs, jobIdx, matrix, delta.Prev, delta.Dirty, 0)
		})
		if churned := rep.Rematch.Joined + rep.Rematch.Departed; churned > 0 {
			tr.observe("rematch.neighborhood_per_churn", float64(rep.Rematch.Neighborhood)/float64(churned))
		}
		if rep.Rematch.Neighborhood > 0 {
			tr.observe("rematch.changed_share", float64(rep.Rematch.Changed)/float64(rep.Rematch.Neighborhood))
		}
	}
	if err != nil {
		return fmt.Errorf("replaying the %s round: %w", rep.Rematch.Mode, err)
	}
	sum += tr.timed(sp, "rematch.Recommendations", "rematch.recommend_ms_p50", func() {
		recs := rematch.Recommendations(jobIdx, matrix, rep.Match, 0, 0)
		agent.BlockingPairsFromRecommendations(recs)
	})
	sum += tr.timed(sp, "policy.TruePenalties", "policy.true_penalties_ms_p50", func() {
		policy.TruePenalties(context.Background(), arch.DefaultCMP(), jobs, rep.Match, in.f.Workers(), in.f.PairCache())
	})
	sum += tr.timed(sp, "cluster.Dispatch", "cluster.dispatch_ms_p50", func() {
		in.dispatch.dispatch(jobs, rep.Match)
	})
	tr.observe("core.residual_ms_p50", ms(epoch-sum))
	tr.observe("core.coverage", float64(sum)/float64(epoch))
	tr.observe("agent.blocking_pairs_per_1k", 1000*float64(len(rep.BlockingPairs))/float64(len(jobs)))
	tr.observe("agent.breakaway_share", float64(rep.BreakAwayCount())/float64(len(jobs)))
	// The framework's matching, not the replay's, is what the next delta
	// is taken against.
	return in.mirror.Commit(matching.Matching(rep.Match), full)
}
