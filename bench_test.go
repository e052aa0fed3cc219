package cooper

// The benchmark harness: one Benchmark per table and figure in the
// paper's evaluation, plus the overhead claims of §IV. Each benchmark
// runs the corresponding experiment end to end and reports its headline
// statistic as a custom metric, so
//
//	go test -bench=. -benchmem
//
// regenerates the paper's artifacts in one pass. Benchmarks run at a
// reduced scale (hundreds of agents, a handful of populations) to keep a
// full sweep under a minute; cmd/cooper-sim runs them at paper scale.

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"cooper/internal/arch"
	"cooper/internal/experiments"
	"cooper/internal/market"
	"cooper/internal/matching"
	"cooper/internal/policy"
	"cooper/internal/profiler"
	"cooper/internal/recommend"
	"cooper/internal/stats"
	"cooper/internal/workload"
)

var (
	benchLabOnce sync.Once
	benchLab     *experiments.Lab
)

func getLab(b *testing.B) *experiments.Lab {
	b.Helper()
	benchLabOnce.Do(func() {
		l, err := experiments.NewLab()
		if err != nil {
			b.Fatal(err)
		}
		benchLab = l
	})
	return benchLab
}

// BenchmarkTable1Catalog regenerates Table I: catalog calibration plus
// standalone bandwidth measurement for all 20 jobs.
func BenchmarkTable1Catalog(b *testing.B) {
	l := getLab(b)
	var maxErr float64
	for i := 0; i < b.N; i++ {
		rows := l.Table1()
		maxErr = 0
		for _, r := range rows {
			e := (r.MeasuredGBps - r.PaperGBps) / (r.PaperGBps + 1e-9)
			if e < 0 {
				e = -e
			}
			if e > maxErr {
				maxErr = e
			}
		}
	}
	b.ReportMetric(maxErr*100, "max-calib-err-%")
}

// BenchmarkFigure1Unfairness regenerates Figure 1: per-application
// penalties under the conventional GR and CO policies, reporting how
// weakly penalty tracks contentiousness.
func BenchmarkFigure1Unfairness(b *testing.B) {
	l := getLab(b)
	var grCorr, coCorr float64
	for i := 0; i < b.N; i++ {
		results, err := l.Figure7(400, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			switch r.Policy {
			case "GR":
				grCorr = r.FairnessCorr
			case "CO":
				coCorr = r.FairnessCorr
			}
		}
	}
	b.ReportMetric(grCorr, "GR-fairness-corr")
	b.ReportMetric(coCorr, "CO-fairness-corr")
}

// BenchmarkFigure2Motivation regenerates Figure 2: the four-user
// comparison of performance- and stability-optimal colocations.
func BenchmarkFigure2Motivation(b *testing.B) {
	l := getLab(b)
	var blocking float64
	for i := 0; i < b.N; i++ {
		m, err := l.Motivation()
		if err != nil {
			b.Fatal(err)
		}
		blocking = float64(m.PerformanceBlocking - m.StabilityBlocking)
	}
	b.ReportMetric(blocking, "blocking-pairs-removed")
}

// BenchmarkFigure3Fairness regenerates Figure 3: stability's fairness
// gain over performance-centric colocation for the same four users.
func BenchmarkFigure3Fairness(b *testing.B) {
	l := getLab(b)
	var gain float64
	for i := 0; i < b.N; i++ {
		m, err := l.Motivation()
		if err != nil {
			b.Fatal(err)
		}
		gain = m.StabilityFairness - m.PerformanceFairness
	}
	b.ReportMetric(gain, "fairness-corr-gain")
}

// BenchmarkFigure5Marriage regenerates the worked stable-marriage example.
func BenchmarkFigure5Marriage(b *testing.B) {
	var rounds float64
	for i := 0; i < b.N; i++ {
		tr, err := experiments.Figure5()
		if err != nil {
			b.Fatal(err)
		}
		rounds = float64(tr.Rounds)
	}
	b.ReportMetric(rounds, "rounds")
}

// BenchmarkFigure7Penalties regenerates Figure 7: per-application penalty
// profiles for all five policies, reporting the fairness correlations of
// the paper's recommended policy and the greedy baseline.
func BenchmarkFigure7Penalties(b *testing.B) {
	l := getLab(b)
	var smr, gr float64
	for i := 0; i < b.N; i++ {
		results, err := l.Figure7(400, 2)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			switch r.Policy {
			case "SMR":
				smr = r.FairnessCorr
			case "GR":
				gr = r.FairnessCorr
			}
		}
	}
	b.ReportMetric(smr, "SMR-fairness-corr")
	b.ReportMetric(gr, "GR-fairness-corr")
}

// BenchmarkFigure8RankFairness regenerates Figure 8: rank correlation
// between penalties and bandwidth demands.
func BenchmarkFigure8RankFairness(b *testing.B) {
	l := getLab(b)
	var smrRank float64
	for i := 0; i < b.N; i++ {
		results, err := l.Figure7(400, 3)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range experiments.Figure8(results) {
			if r.Policy == "SMR" {
				smrRank = r.RankCorr
			}
		}
	}
	b.ReportMetric(smrRank, "SMR-rank-corr")
}

// BenchmarkFigure9Preferences regenerates Figure 9: agents improved /
// unchanged / degraded when switching from conventional to stable
// policies, reporting the share doing at least as well under SR/GR.
func BenchmarkFigure9Preferences(b *testing.B) {
	l := getLab(b)
	var atLeast float64
	for i := 0; i < b.N; i++ {
		results, err := l.Figure9(3, 200, 0.005, 4)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			if r.Stable == "SR" && r.Baseline == "GR" {
				total := r.Improved + r.Unchanged + r.Degraded
				atLeast = float64(r.Improved+r.Unchanged) / float64(total)
			}
		}
	}
	b.ReportMetric(atLeast*100, "SR/GR-at-least-as-well-%")
}

// BenchmarkFigure10Stability regenerates Figure 10: break-away
// recommendations per policy and alpha, reporting the medians at alpha=0
// for the most and least stable policies.
func BenchmarkFigure10Stability(b *testing.B) {
	l := getLab(b)
	alphas := []float64{0, 0.01, 0.02, 0.03, 0.04, 0.05}
	var smr, gr float64
	for i := 0; i < b.N; i++ {
		results, err := l.Figure10(5, 200, alphas, 5)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			switch r.Policy {
			case "SMR":
				smr = r.MedianBlocking(0)
			case "GR":
				gr = r.MedianBlocking(0)
			}
		}
	}
	b.ReportMetric(smr, "SMR-median-breakaways")
	b.ReportMetric(gr, "GR-median-breakaways")
}

// BenchmarkFigure11Sensitivity regenerates Figure 11: penalty
// distributions across the four workload mixes and five policies,
// reporting the contentious mix's mean penalty under SMP (the policy the
// paper singles out for that scenario).
func BenchmarkFigure11Sensitivity(b *testing.B) {
	l := getLab(b)
	var smpHigh float64
	for i := 0; i < b.N; i++ {
		cells, err := l.Figure11(300, 6)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range cells {
			if c.Mix == "Beta-High" && c.Policy == "SMP" {
				smpHigh = c.Mean
			}
		}
	}
	b.ReportMetric(smpHigh, "SMP-BetaHigh-mean-penalty")
}

// BenchmarkFigure12Prediction regenerates Figure 12: collaborative
// filtering accuracy vs sampled fraction, reporting the paper's two
// anchor points.
func BenchmarkFigure12Prediction(b *testing.B) {
	l := getLab(b)
	var at25, at75 float64
	for i := 0; i < b.N; i++ {
		points, err := l.Figure12([]float64{0.25, 0.75}, 3, 7)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range points {
			if p.Iterations != 2 {
				continue
			}
			switch p.Fraction {
			case 0.25:
				at25 = p.Accuracy
			case 0.75:
				at75 = p.Accuracy
			}
		}
	}
	b.ReportMetric(at25*100, "accuracy-at-25%")
	b.ReportMetric(at75*100, "accuracy-at-75%")
}

// BenchmarkFigure13Scalability regenerates Figure 13: SMR fairness vs
// population size, reporting the correlation gain from 10 to 400 agents.
func BenchmarkFigure13Scalability(b *testing.B) {
	l := getLab(b)
	var gain float64
	for i := 0; i < b.N; i++ {
		points, err := l.Figure13([]int{10, 100, 400}, 6, 8)
		if err != nil {
			b.Fatal(err)
		}
		gain = points[len(points)-1].FairnessCorr - points[0].FairnessCorr
	}
	b.ReportMetric(gain, "fairness-corr-gain-10-to-400")
}

// BenchmarkFigure14Shapley regenerates the appendix's Shapley example.
func BenchmarkFigure14Shapley(b *testing.B) {
	var phiC float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure14()
		if err != nil {
			b.Fatal(err)
		}
		phiC = r.Shapley[2]
	}
	b.ReportMetric(phiC, "phi-C")
}

// BenchmarkOverheadPrediction measures the §IV-A claim: preference
// prediction completes within ~100ms for a 1000-agent population. Its
// preference structure is the 20x20 job matrix, which agents read
// through their catalog row, so the population's size costs nothing here.
func BenchmarkOverheadPrediction(b *testing.B) {
	l := getLab(b)
	sparse := recommend.MaskPairs(l.Dense, 0.25, stats.NewRand(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := recommend.Default().Complete(sparse); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOverheadPredictionReference runs the same §IV-A overhead
// experiment through the retained naive kernel, so the flat kernel's
// win stays visible at the paper's own operating point, not just on
// synthetic matrices.
func BenchmarkOverheadPredictionReference(b *testing.B) {
	l := getLab(b)
	sparse := recommend.MaskPairs(l.Dense, 0.25, stats.NewRand(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := recommend.Default().WithReferenceKernel().Complete(sparse); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOverheadMatching measures the §IV-C claim: stable matching
// colocates 1000 agents in single-digit seconds (1-5s in the paper's
// Java; this implementation is far faster). Each iteration is one
// unsharded market-engine clear over the job-level matrix and the
// agents' catalog rows — the path every epoch takes.
func BenchmarkOverheadMatching(b *testing.B) {
	l := getLab(b)
	roster := market.Roster{Jobs: workload.Sample(1000, l.Catalog, stats.Uniform{}, stats.NewRand(3)).Jobs}
	for _, pol := range policy.All() {
		b.Run(pol.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ep := market.New(market.Engine{Config: market.Config{Policy: pol},
					Catalog: l.Catalog, Matrix: l.Dense, Rand: stats.NewRand(int64(i))}).Begin()
				if _, err := ep.Clear(context.Background(), roster); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStableMarriageCore measures raw Gale-Shapley on random
// 500x500 preference lists.
func BenchmarkStableMarriageCore(b *testing.B) {
	r := stats.NewRand(4)
	n := 500
	prop := make([][]int, n)
	recv := make([][]int, n)
	for i := 0; i < n; i++ {
		prop[i] = r.Perm(n)
		recv[i] = r.Perm(n)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := matching.StableMarriage(prop, recv); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStableRoommatesCore measures Irving's algorithm on random
// 500-agent instances (counting both solved and provably unstable runs).
func BenchmarkStableRoommatesCore(b *testing.B) {
	r := stats.NewRand(5)
	n := 500
	prefs := make([][]int, n)
	for i := range prefs {
		others := make([]int, 0, n-1)
		for j := 0; j < n; j++ {
			if j != i {
				others = append(others, j)
			}
		}
		r.Shuffle(len(others), func(a, c int) { others[a], others[c] = others[c], others[a] })
		prefs[i] = others
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = matching.StableRoommates(prefs)
	}
}

// BenchmarkPairContention measures the analytic CMP contention solver.
func BenchmarkPairContention(b *testing.B) {
	l := getLab(b)
	a := l.Catalog[0].Model
	c := l.Catalog[12].Model
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Machine.Pair(a, c)
	}
}

// BenchmarkAblationProposerAdvantage measures the §III-C proposer
// advantage under random partitions (the paper: small in practice).
func BenchmarkAblationProposerAdvantage(b *testing.B) {
	l := getLab(b)
	var adv float64
	for i := 0; i < b.N; i++ {
		res, err := l.ProposerAdvantage(200, 11)
		if err != nil {
			b.Fatal(err)
		}
		adv = res.Advantage
	}
	b.ReportMetric(adv, "penalty-advantage")
}

// BenchmarkAblationPredictionMatching measures what collaborative
// filtering at the paper's 25% operating point costs the matching
// relative to oracular knowledge.
func BenchmarkAblationPredictionMatching(b *testing.B) {
	l := getLab(b)
	var gap, fairness float64
	for i := 0; i < b.N; i++ {
		points, err := l.PredictionToMatching([]float64{0.25}, 200, 12)
		if err != nil {
			b.Fatal(err)
		}
		gap = points[0].MeanPenalty - points[0].OraclePenalty
		fairness = points[0].FairnessCorr
	}
	b.ReportMetric(gap, "penalty-gap-vs-oracle")
	b.ReportMetric(fairness, "fairness-corr")
}

// BenchmarkAblationThreshold measures the threshold baseline's machine
// cost at a 10% tolerance against fully loaded greedy.
func BenchmarkAblationThreshold(b *testing.B) {
	l := getLab(b)
	var extra float64
	for i := 0; i < b.N; i++ {
		points, err := l.ThresholdStudy([]float64{0.10}, 200, 13)
		if err != nil {
			b.Fatal(err)
		}
		extra = float64(points[0].Machines - points[0].GreedyMachines)
	}
	b.ReportMetric(extra, "extra-machines")
}

// BenchmarkAblationQuads measures the §VIII 4-way consolidation
// trade-off: machines halved, penalties absorbing the deeper contention
// and thread-share loss.
func BenchmarkAblationQuads(b *testing.B) {
	l := getLab(b)
	var penalty float64
	for i := 0; i < b.N; i++ {
		res, err := l.Quads(80, 14)
		if err != nil {
			b.Fatal(err)
		}
		penalty = res.QuadPenalty
	}
	b.ReportMetric(penalty, "quad-mean-penalty")
}

// BenchmarkAblationCacheIsolation contrasts shared-LRU contention with
// static way-partitioning: isolation protects cache-sensitive victims
// but leaves bandwidth contention intact.
func BenchmarkAblationCacheIsolation(b *testing.B) {
	l := getLab(b)
	shared := l.Machine
	isolated := l.Machine
	isolated.StaticCachePartition = true
	dedup, _ := workload.Find(l.Catalog, "dedup")
	corr, _ := workload.Find(l.Catalog, "correlation")
	var dShared, dIso float64
	for i := 0; i < b.N; i++ {
		soloS := shared.Solo(dedup.Model)
		coloS, _ := shared.Pair(dedup.Model, corr.Model)
		dShared = arch.Disutility(soloS, coloS)
		soloI := isolated.Solo(dedup.Model)
		coloI, _ := isolated.Pair(dedup.Model, corr.Model)
		dIso = arch.Disutility(soloI, coloI)
	}
	b.ReportMetric(dShared, "victim-penalty-shared")
	b.ReportMetric(dIso, "victim-penalty-isolated")
}

// BenchmarkStrategyProofness measures the manipulation study: the best
// gain any tested misreport achieves for a strategic agent under SMR
// (the paper's motivation for guarding against strategic behavior;
// deferred acceptance leaves liars nothing).
func BenchmarkStrategyProofness(b *testing.B) {
	l := getLab(b)
	var bestGain float64
	for i := 0; i < b.N; i++ {
		res, err := l.Manipulation(100, 5, 17)
		if err != nil {
			b.Fatal(err)
		}
		bestGain = res.BestGain
	}
	b.ReportMetric(bestGain, "best-lie-gain")
}

// BenchmarkChurnStability measures matching churn under 20% agent
// turnover per epoch.
func BenchmarkChurnStability(b *testing.B) {
	l := getLab(b)
	var blocking float64
	for i := 0; i < b.N; i++ {
		points, err := l.Churn(100, 4, 0.2, 18)
		if err != nil {
			b.Fatal(err)
		}
		blocking = points[len(points)-1].BlockingPct
	}
	b.ReportMetric(blocking, "final-blocking-pct")
}

// BenchmarkLoadSweep measures the continuous-operation driver at a
// moderate arrival rate.
func BenchmarkLoadSweep(b *testing.B) {
	l := getLab(b)
	var wait float64
	for i := 0; i < b.N; i++ {
		points, err := l.LoadSweep([]float64{400}, 1, 16)
		if err != nil {
			b.Fatal(err)
		}
		wait = points[0].MeanWaitS
	}
	b.ReportMetric(wait, "mean-wait-s")
}

// BenchmarkShapleyAttribution quantifies the abstract's fairness claim:
// the correlation between each policy's per-job penalties and the jobs'
// Shapley-fair shares of coalition penalties.
func BenchmarkShapleyAttribution(b *testing.B) {
	l := getLab(b)
	var smr, co float64
	for i := 0; i < b.N; i++ {
		res, err := l.ShapleyAttributionStudy(400, 10, 21)
		if err != nil {
			b.Fatal(err)
		}
		smr = res.PolicyCorr["SMR"]
		co = res.PolicyCorr["CO"]
	}
	b.ReportMetric(smr, "SMR-shapley-corr")
	b.ReportMetric(co, "CO-shapley-corr")
}

// BenchmarkEfficiencyStudy measures the intro's energy claim: colocation
// savings per job versus a one-job-per-machine schedule, under SMR.
func BenchmarkEfficiencyStudy(b *testing.B) {
	l := getLab(b)
	var smrSavings float64
	for i := 0; i < b.N; i++ {
		rows, err := l.EfficiencyStudy(100, 23)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Policy == "SMR" {
				smrSavings = r.SavingsPct
			}
		}
	}
	b.ReportMetric(smrSavings, "SMR-energy-savings-%")
}

// BenchmarkHeterogeneity measures the penalty inflation from breaking the
// paper's homogeneous-cluster assumption.
func BenchmarkHeterogeneity(b *testing.B) {
	l := getLab(b)
	var inflation float64
	for i := 0; i < b.N; i++ {
		res, err := l.Heterogeneity(100, 25)
		if err != nil {
			b.Fatal(err)
		}
		inflation = res.BlindMean / res.HomogeneousMean
	}
	b.ReportMetric(inflation, "blind-placement-inflation")
}

// benchEpochs drives repeated scheduling epochs over a fixed 200-agent
// population on an oracle framework (no profiling cost inside the loop).
func benchEpochs(b *testing.B, tel *Telemetry) {
	f, err := New(WithOracle(), WithSeed(31), WithTelemetry(tel))
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	pop := f.SamplePopulation(200, Uniform())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.RunEpoch(pop); err != nil {
			b.Fatal(err)
		}
	}
}

// benchCampaign measures the offline profiling campaign — the pipeline's
// dominant cost — at a fixed worker count. Results are bit-identical at
// any count; only wall clock changes.
func benchCampaign(b *testing.B, workers int) {
	l := getLab(b)
	sim := arch.SimConfig{DurationS: 30, StepS: 1, PhaseNoise: 0.05, PhaseCorr: 0.6}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := profiler.New(l.Machine, profiler.NewDatabase(), 7)
		p.Sim = sim
		p.Workers = workers
		if err := p.CampaignContext(context.Background(), l.Catalog, 0.25); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProfilingCampaignSerial is the Workers:1 campaign baseline.
func BenchmarkProfilingCampaignSerial(b *testing.B) { benchCampaign(b, 1) }

// BenchmarkProfilingCampaignParallel runs the same campaign fanned out
// over 8 workers (the per-run seeding makes the database identical).
func BenchmarkProfilingCampaignParallel(b *testing.B) { benchCampaign(b, 8) }

// benchEpochPipeline measures end-to-end epochs (expand, match, assess,
// dispatch) through the worker pool and pair cache at a fixed count.
func benchEpochPipeline(b *testing.B, workers int) {
	f, err := New(WithOracle(), WithSeed(31), WithWorkers(workers))
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	pop := f.SamplePopulation(400, Uniform())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.RunEpoch(pop); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEpochPipelineSerial is the Workers:1 epoch baseline.
func BenchmarkEpochPipelineSerial(b *testing.B) { benchEpochPipeline(b, 1) }

// BenchmarkEpochPipelineParallel runs the same epochs at 8 workers.
func BenchmarkEpochPipelineParallel(b *testing.B) { benchEpochPipeline(b, 8) }

// benchClear runs whole epochs — clear, assess, dispatch — over one
// n-agent population on an oracle framework, reporting B/op.
func benchClear(b *testing.B, n int, opts ...Option) {
	benchClearOn(b, n, append([]Option{WithOracle(), WithSeed(31)}, opts...)...)
}

// benchClearOn is benchClear on a framework built from opts alone.
func benchClearOn(b *testing.B, n int, opts ...Option) {
	f, err := New(opts...)
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	pop := f.SamplePopulation(n, Uniform())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.RunEpoch(pop); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClearUnsharded runs whole unsharded epochs — clear, assess,
// dispatch — at growing populations, reporting B/op next to ns/op. No
// agents×agents penalty matrix exists on that path, so n=20000 runs in
// default memory. SMP leaves every same-half pair free to block — tens of
// millions of pairs at n=20000 — and the assessment counts them from
// class counts without listing one, so SMP's B/op grows with n, as
// SMR's does. What still grows with n² is Irving's own state: SR keeps
// one struck-out flag per (agent, candidate). bench-smoke runs each once,
// which is how CI notices the clear going quadratic in memory again.
func BenchmarkClearUnsharded(b *testing.B) {
	for _, p := range []Policy{SMR(), SMP(), SR()} {
		for _, n := range []int{800, 5000, 20000} {
			b.Run(fmt.Sprintf("%s/n=%d", p.Name(), n), func(b *testing.B) {
				benchClear(b, n, WithPolicy(p))
			})
		}
	}
}

// BenchmarkClearPredicted runs whole unsharded SMR and SMP epochs over
// the predicted penalty matrix: the default framework's, which every
// in-process clear runs on, with the population drawn from its catalog.
// Collaborative filtering copies revealed values, so a predicted row ties
// classes where an oracle row never does, and the marriage breaks those
// ties by class. bench-smoke runs each once; n=20000 is there so that a
// marriage that goes back to proposing agent by agent, quadratic on tied
// rows (0.3–0.5 s an SMR epoch at that size, against 5–6 ms over class
// counts, on a 2-core guest), shows in its time.
func BenchmarkClearPredicted(b *testing.B) {
	for _, p := range []Policy{SMR(), SMP()} {
		for _, n := range []int{800, 5000, 20000} {
			b.Run(fmt.Sprintf("%s/n=%d", p.Name(), n), func(b *testing.B) {
				benchClearOn(b, n, WithSeed(1), WithPolicy(p))
			})
		}
	}
}

// BenchmarkClearSharded runs whole sharded SMR epochs at the populations
// the all-pairs market is slowest at: n=20000 and n=100000 over 64 and
// 256 shards, the far end of the agents-vs-epoch-time curve. bench-smoke
// runs each once; compare with BenchmarkClearUnsharded/SMR at n=20000.
func BenchmarkClearSharded(b *testing.B) {
	for _, n := range []int{20000, 100000} {
		for _, shards := range []int{64, 256} {
			b.Run(fmt.Sprintf("n=%d/shards=%d", n, shards), func(b *testing.B) {
				benchClear(b, n, WithPolicy(SMR()), WithShards(shards))
			})
		}
	}
}

// BenchmarkEpochThroughput measures epoch scheduling with telemetry
// disabled — the baseline the telemetry layer's overhead is judged
// against.
func BenchmarkEpochThroughput(b *testing.B) {
	benchEpochs(b, nil)
}

// BenchmarkEpochThroughputTelemetry measures the same epochs with the
// full telemetry layer enabled (spans, counters, histograms).
func BenchmarkEpochThroughputTelemetry(b *testing.B) {
	tel := NewTelemetry()
	benchEpochs(b, tel)
	b.ReportMetric(float64(tel.Metrics.Snapshot().Counter("epoch.count")), "epochs")
}

// streamMarket is the streaming market BenchmarkStreamRepair and the
// allocation pin share: n agents over the given shards (1: unsharded),
// admitted by a cold epoch 0, then epochs in which 1% of the population
// leaves and as many Uniform jobs join.
type streamMarket struct {
	f   *Framework
	ids []int // live agents' stable IDs, as of the last report
	rng *rand.Rand
}

func newStreamMarket(tb testing.TB, n, shards int, threshold float64) *streamMarket {
	tb.Helper()
	f, err := New(WithShards(shards), WithRematch(), WithChurnThreshold(threshold), WithSeed(1))
	if err != nil {
		tb.Fatal(err)
	}
	rep, err := f.StreamEpoch(Churn{Join: f.SamplePopulation(n, Uniform()).Jobs})
	if err != nil {
		f.Close()
		tb.Fatal(err)
	}
	return &streamMarket{f: f, ids: rep.AgentIDs, rng: stats.NewRand(7)}
}

// churn draws the next epoch's departures and joins.
func (m *streamMarket) churn() Churn {
	k := max(1, len(m.ids)/100)
	depart := make([]int, k)
	for i, p := range m.rng.Perm(len(m.ids))[:k] {
		depart[i] = m.ids[p]
	}
	return Churn{Join: workload.Sample(k, m.f.Catalog(), Uniform(), m.rng).Jobs, Depart: depart}
}

// step plays one streaming epoch.
func (m *streamMarket) step(tb testing.TB, c Churn) *EpochReport {
	rep, err := m.f.StreamEpoch(c)
	if err != nil {
		tb.Fatal(err)
	}
	m.ids = rep.AgentIDs
	return rep
}

// BenchmarkStreamRepair runs streaming epochs at the stream-sharded
// workload's size — n=10000 over 32 shards, 1% churn — with the churn
// threshold set so that every epoch repairs the standing matching
// (repair) or every epoch clears all shards from scratch (full). What a
// repair epoch costs beyond the repair itself is the epoch's per-agent
// tail (assess, report, dispatch): the gap between the two legs is the
// clear, and B/op and allocs/op are what TestStreamRepairEpochAllocation
// pins. unsharded-repair repairs the same market unsharded, one
// neighborhood over the whole population and one Rewire.
// blocking_pairs/op is the epochs' mean blocking-pair count over the
// whole market: the stability price of the streaming market.
func BenchmarkStreamRepair(b *testing.B) {
	for _, leg := range []struct {
		name, mode string
		shards     int
		threshold  float64
	}{{"repair", "repair", 32, 1e9}, {"full", "full", 32, 1e-9}, {"unsharded-repair", "repair", 1, 1e9}} {
		b.Run(leg.name, func(b *testing.B) {
			m := newStreamMarket(b, 10000, leg.shards, leg.threshold)
			defer m.f.Close()
			b.ReportAllocs()
			b.ResetTimer()
			blocking := 0
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c := m.churn()
				b.StartTimer()
				rep := m.step(b, c)
				if rep.Rematch.Mode != leg.mode {
					b.Fatalf("epoch ran in %s mode", rep.Rematch.Mode)
				}
				blocking += rep.BlockingPairCount
			}
			b.ReportMetric(float64(blocking)/float64(b.N), "blocking_pairs/op")
		})
	}
}

// predictCompleteInput builds the predict-complete workload's input: n
// synthetic job specs — every Table I job's model at evenly spaced
// fractions (0.5 to 1) of its bandwidth, shuffled by the seed —
// calibrated into a catalog, its analytic penalty matrix solved, and 25%
// of the colocations revealed. It repeats benchmark/predict.go's
// construction, which lives in another module's main package.
func predictCompleteInput(tb testing.TB, n int, seed int64) [][]float64 {
	tb.Helper()
	machine := arch.DefaultCMP()
	rng := rand.New(rand.NewSource(seed))
	base, err := workload.Catalog(machine)
	if err != nil {
		tb.Fatal(err)
	}
	steps := (n + len(base) - 1) / len(base)
	specs := make([]workload.Spec, n)
	for i := range specs {
		b := base[i%len(base)]
		specs[i] = workload.Spec{
			Application:   b.Application,
			BandwidthGBps: b.BandwidthGBps * (0.5 + 0.5*(float64(i/len(base))+0.5)/float64(steps)),
			RuntimeS:      b.RuntimeS,
			WorkingSetMB:  b.Model.WSBytes / (1 << 20),
			MissFloor:     b.Model.MissFloor,
			CPI0:          b.Model.CPI0,
			ThreadScale:   b.Model.ThreadScale,
		}
	}
	rng.Shuffle(n, func(a, b int) { specs[a], specs[b] = specs[b], specs[a] })
	for i := range specs {
		specs[i].Name = fmt.Sprintf("job-%04d", i)
	}
	catalog, err := workload.BuildCatalog(machine, specs)
	if err != nil {
		tb.Fatal(err)
	}
	truth, err := profiler.DensePenaltiesContext(context.Background(), machine, catalog, 0, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return recommend.MaskPairs(truth, 0.25, rng)
}

// BenchmarkPredictComplete is Predictor.Complete on the harness's
// predict-complete shape (600 jobs, 25% of pairs), exact kernel beside
// the approximate one; the exact leg's B/op is what
// TestPredictCompleteAllocation pins.
func BenchmarkPredictComplete(b *testing.B) {
	sparse := predictCompleteInput(b, 600, 7)
	approx := recommend.Default()
	approx.Approx = recommend.DefaultApprox()
	for _, leg := range []struct {
		name string
		p    recommend.Predictor
	}{{"exact", recommend.Default()}, {"approx", approx}} {
		b.Run(leg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := leg.p.Complete(sparse); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
