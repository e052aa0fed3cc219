package main

import (
	"context"
	"math/rand"
	"time"

	"cooper"
	"cooper/internal/agent"
	"cooper/internal/arch"
	"cooper/internal/policy"
	"cooper/internal/profiler"
	"cooper/internal/shard"
	"cooper/internal/telemetry"
	"cooper/internal/workload"
)

// epoch-allpairs: the unsharded batch pipeline. Each iteration draws one
// fresh Uniform population and clears it twice: with SMR, the paper's
// policy (the primary operation), then with SMP (the secondary: the same
// policy and matching layers used the other way round — the halves split by
// memory intensity instead of at random, so every proposer's list is
// ordered alike and the marriage does more work per proposal). SR would be
// the natural third, but its retries on populations without a stable
// roommate assignment give it a tail of seconds that no median hides from
// agents_per_s.
type epochInst struct {
	cfg      *config
	tr       *tracer
	smr, smp *cooper.Framework
	catalog  []workload.Job
	pops     *rand.Rand // the harness's own stream: the program sees only populations
	replay   *rand.Rand
	scratch  *telemetry.Telemetry // sink of the replayed calls, which run traced like the program
	dispatch *dispatcher
}

func setupEpoch(cfg *config, tr *tracer) (instance, error) {
	in := &epochInst{cfg: cfg, tr: tr,
		pops:   rand.New(rand.NewSource(cfg.seed)),
		replay: rand.New(rand.NewSource(cfg.seed + 1))}
	build := func(p cooper.Policy) (*cooper.Framework, error) {
		opts := []cooper.Option{cooper.WithPolicy(p), cooper.WithSeed(programSeed)}
		if tr != nil {
			opts = append(opts, cooper.WithTelemetry(cooper.NewTelemetry()))
		}
		return cooper.New(opts...)
	}
	var err error
	if in.smr, err = build(cooper.SMR()); err != nil {
		return nil, err
	}
	if in.smp, err = build(cooper.SMP()); err != nil {
		return nil, err
	}
	in.catalog = in.smr.Catalog()
	// One unmeasured epoch each, so the measured ones see warm caches.
	warm := in.population()
	for _, f := range []*cooper.Framework{in.smr, in.smp} {
		if _, err := f.RunEpoch(warm); err != nil {
			return nil, err
		}
	}
	if tr != nil {
		in.scratch = telemetry.New()
		if in.dispatch, err = newDispatcher(arch.DefaultCMP(), in.smr.PairCache()); err != nil {
			return nil, err
		}
		replayFramework(tr, cfg.sizes.EpochAgents, in.catalog, cooper.WithPolicy(cooper.SMR()), cooper.WithSeed(programSeed))
	}
	return in, nil
}

func (in *epochInst) population() workload.Population {
	return workload.Sample(in.cfg.sizes.EpochAgents, in.catalog, cooper.Uniform(), in.pops)
}

func (in *epochInst) close() error {
	in.smr.Close()
	return in.smp.Close()
}

func (in *epochInst) measure(d time.Duration) (*measurement, error) {
	m := &measurement{}
	digest := newMatchDigest()
	n := in.cfg.sizes.EpochAgents
	w := openWindow(d)
	epochs := 0
	for k := 0; w.open(); k++ {
		pop := in.population()
		span := in.tr.epoch(k)

		var rep *cooper.EpochReport
		var took time.Duration
		runSpan := span.Child("cooper.RunEpoch[SMR]")
		took, err := m.timedOp(func() (err error) {
			rep, err = in.smr.RunEpoch(pop)
			return err
		})
		runSpan.Finish()
		if err != nil {
			m.failf("epoch %d SMR: %v", k, err)
		} else {
			in.check(m, rep, in.smr)
			digest.add(rep.Match)
			m.penalty.add(rep.MeanTruePenalty())
			m.agents += float64(n)
			epochs++
			if in.tr != nil {
				in.replayEpoch(span, pop, rep, took)
			}
		}

		altSpan := span.Child("cooper.RunEpoch[SMP]")
		_, err = m.timedAlt(func() (err error) {
			rep, err = in.smp.RunEpoch(pop)
			return err
		})
		altSpan.Finish()
		if err != nil {
			m.failf("epoch %d SMP: %v", k, err)
		} else {
			in.check(m, rep, in.smp)
			m.agents += float64(n)
		}
		span.Finish()
	}
	w.close(m)
	m.digest = digest.String()
	telemetryCounts(in.tr, in.smr, epochs+1, float64((epochs+1)*n)) // +1: the warm-up epoch
	return m, nil
}

// check verifies one epoch report; unsharded, only an odd population leaves
// anyone alone.
func (in *epochInst) check(m *measurement, rep *cooper.EpochReport, f *cooper.Framework) {
	if in.cfg.check {
		checkReport(m, rep, f, len(rep.Match)%2)
	}
}

// checkReport verifies an epoch report's matching, and its predicted and
// true penalties against the framework's job-level matrices.
func checkReport(m *measurement, rep *cooper.EpochReport, f *cooper.Framework, maxUnmatched int) {
	if err := checkMatching(rep.Match, maxUnmatched); err != nil {
		m.failf("%v", err)
		return
	}
	jobIdx, err := populationRows(f.Catalog(), rep.Population)
	if err != nil {
		m.failf("%v", err)
		return
	}
	m.ok(
		checkPenalties("PredictedPenalty", rep.PredictedPenalty, rep.Match, jobIdx, f.PredictedPenalties()),
		checkPenalties("TruePenalty", rep.TruePenalty, rep.Match, jobIdx, f.TruePenalties()))
}

// populationRows maps each agent to its job's row of the job-level matrix.
func populationRows(catalog []workload.Job, pop workload.Population) ([]int, error) {
	names := make([]string, len(pop.Jobs))
	for i, j := range pop.Jobs {
		names[i] = j.Name
	}
	return shard.JobIndices(catalog, names)
}

// replayEpoch times, on the epoch's own population and matching, each
// public call RunEpoch makes on the unsharded path; what the sum leaves of
// the epoch is core's residual.
func (in *epochInst) replayEpoch(span *telemetry.Span, pop workload.Population, rep *cooper.EpochReport, epoch time.Duration) {
	tr, f := in.tr, in.smr
	sp := span.Child("replay")
	defer sp.Finish()
	n := len(pop.Jobs)
	machine := arch.DefaultCMP()

	var predD [][]float64
	var sum time.Duration
	tr.set("profiler.expand_mb", allocMB(func() {
		sum += tr.timed(sp, "profiler.ExpandToAgents", "profiler.expand_ms_p50", func() {
			predD, _ = profiler.ExpandToAgents(f.PredictedPenalties(), in.catalog, pop)
		})
	}))
	bw := make([]float64, n)
	for i, j := range pop.Jobs {
		bw[i] = j.BandwidthGBps
	}
	sum += tr.timed(sp, "policy.Assign[SMR]", "policy.assign_ms_p50", func() {
		cooper.SMR().Assign(predD, policy.Context{BandwidthGBps: bw, Rand: in.replay, Metrics: in.scratch.Registry()})
	})
	sum += tr.timed(sp, "agent.Exchange", "agent.exchange_ms_p50", func() {
		agents := make([]*agent.Agent, n)
		for i := range agents {
			agents[i] = agent.New(i, pop.Jobs[i].Name, predD[i])
		}
		recs, _ := agent.Exchange(agents, rep.Match, 0)
		agent.BlockingPairsFromRecommendations(recs)
	})
	sum += tr.timed(sp, "policy.TruePenalties", "policy.true_penalties_ms_p50", func() {
		policy.TruePenalties(context.Background(), machine, pop.Jobs, rep.Match, f.Workers(), f.PairCache())
	})
	sum += tr.timed(sp, "cluster.Dispatch", "cluster.dispatch_ms_p50", func() {
		in.dispatch.dispatch(pop.Jobs, rep.Match)
	})
	tr.observe("core.residual_ms_p50", ms(epoch-sum))
	tr.observe("core.coverage", float64(sum)/float64(epoch))
	tr.observe("agent.blocking_pairs_per_1k", 1000*float64(len(rep.BlockingPairs))/float64(n))
	tr.observe("agent.breakaway_share", float64(rep.BreakAwayCount())/float64(n))
}
