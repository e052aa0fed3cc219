package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"cooper/internal/agent"
	"cooper/internal/arch"
	"cooper/internal/matching"
	"cooper/internal/policy"
	"cooper/internal/rematch"
	"cooper/internal/stats"
	"cooper/internal/telemetry"
	"cooper/internal/workload"
)

func oracleFramework(t *testing.T, p policy.Policy, seed int64) *Framework {
	t.Helper()
	f, err := NewFramework(context.Background(), Config{Seed: seed, Market: MarketConfig{Policy: p}, Pipeline: PipelineConfig{Oracle: true}})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestNewOracle(t *testing.T) {
	f := oracleFramework(t, nil, 1)
	if len(f.Catalog()) != 20 {
		t.Fatalf("catalog = %d", len(f.Catalog()))
	}
	if f.db.Len() != 0 {
		t.Error("oracle mode should not profile")
	}
	acc, err := f.PredictionAccuracy()
	if err != nil {
		t.Fatal(err)
	}
	if acc != 1 {
		t.Errorf("oracle accuracy = %v, want 1", acc)
	}
}

func TestNewWithProfiling(t *testing.T) {
	f, err := NewFramework(context.Background(), Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if f.db.Len() == 0 {
		t.Error("profiling campaign should populate the database")
	}
	if f.PredictorIterations() < 1 || f.PredictorIterations() > 3 {
		t.Errorf("predictor iterations = %d, want 1-3", f.PredictorIterations())
	}
	acc, err := f.PredictionAccuracy()
	if err != nil {
		t.Fatal(err)
	}
	// End-to-end accuracy runs through noisy profiling, so it trails the
	// noiseless Figure 12 numbers (~0.73 at 25% sampling) somewhat.
	if acc < 0.60 {
		t.Errorf("prediction accuracy = %.3f, want >= 0.60 at 25%% sampling", acc)
	}
}

func TestNewInvalidMachine(t *testing.T) {
	cfg := Config{}
	cfg.Machine.Cores = -1
	if _, err := NewFramework(context.Background(), cfg); err == nil {
		t.Error("invalid machine accepted")
	}
}

func TestRunEpochOracle(t *testing.T) {
	f := oracleFramework(t, policy.StableMarriageRandom{}, 3)
	pop := f.SamplePopulation(40, stats.Uniform{})
	rep, err := f.RunEpoch(pop)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Match.Validate(); err != nil {
		t.Fatal(err)
	}
	for i, j := range rep.Match {
		if j == matching.Unmatched {
			t.Fatalf("agent %d unmatched in even population", i)
		}
	}
	if rep.MeanTruePenalty() <= 0 {
		t.Errorf("mean penalty = %v", rep.MeanTruePenalty())
	}
	if rep.Cluster.Jobs != 40 {
		t.Errorf("cluster ran %d jobs, want 40", rep.Cluster.Jobs)
	}
	if rep.Cluster.UtilizationPct <= 0 {
		t.Errorf("utilization = %v", rep.Cluster.UtilizationPct)
	}
	// With oracle penalties, predicted and true per-agent penalties agree.
	for i := range rep.TruePenalty {
		if rep.TruePenalty[i] != rep.PredictedPenalty[i] {
			t.Fatal("oracle epoch should have matching penalties")
		}
	}
}

// TestEpochTimeoutBoundsRunEpoch: an epoch's deadline is its context's.
// A blown one aborts the epoch with an error wrapping ErrCanceled; a
// generous one leaves the epoch alone.
func TestEpochTimeoutBoundsRunEpoch(t *testing.T) {
	f := oracleFramework(t, policy.Greedy{}, 1)
	defer f.Close()
	pop := f.SamplePopulation(8, stats.Uniform{})
	run := func(d time.Duration) error {
		ctx, cancel := context.WithTimeout(context.Background(), d)
		defer cancel()
		_, err := f.RunEpochContext(ctx, pop)
		return err
	}
	if err := run(time.Nanosecond); !errors.Is(err, ErrCanceled) {
		t.Fatalf("RunEpochContext under a 1ns deadline = %v, want ErrCanceled", err)
	}
	if err := run(time.Hour); err != nil {
		t.Fatalf("RunEpochContext under a 1h deadline: %v", err)
	}
}

func TestRunEpochEmptyPopulation(t *testing.T) {
	f := oracleFramework(t, nil, 4)
	if _, err := f.RunEpoch(f.SamplePopulation(0, stats.Uniform{})); err == nil {
		t.Error("empty population accepted")
	}
}

func TestStablePolicyBlocksLessThanGreedy(t *testing.T) {
	popSeed := int64(5)
	blockCount := func(p policy.Policy) int {
		f := oracleFramework(t, p, popSeed)
		pop := f.SamplePopulation(100, stats.Uniform{})
		rep, err := f.RunEpoch(pop)
		if err != nil {
			t.Fatal(err)
		}
		return rep.BlockingPairCount
	}
	gr := blockCount(policy.Greedy{})
	smr := blockCount(policy.StableMarriageRandom{})
	if smr > gr {
		t.Errorf("SMR blocking pairs %d exceed GR %d", smr, gr)
	}
}

func TestRunEpochPerformanceWithinHeuristics(t *testing.T) {
	// The paper's headline: Cooper performs within ~5% of prior
	// heuristics. Compare SMR's mean penalty against GR's.
	mean := func(p policy.Policy) float64 {
		f := oracleFramework(t, p, 6)
		pop := f.SamplePopulation(200, stats.Uniform{})
		rep, err := f.RunEpoch(pop)
		if err != nil {
			t.Fatal(err)
		}
		return rep.MeanTruePenalty()
	}
	gr := mean(policy.Greedy{})
	smr := mean(policy.StableMarriageRandom{})
	if smr > gr+0.05 {
		t.Errorf("SMR mean penalty %.4f should be within 5%% of GR %.4f", smr, gr)
	}
}

func TestBreakAwayCountsRespondToAlpha(t *testing.T) {
	count := func(alpha float64) int {
		f, err := NewFramework(context.Background(), Config{Seed: 7,
			Market: MarketConfig{Policy: policy.Greedy{}, Alpha: alpha}, Pipeline: PipelineConfig{Oracle: true}})
		if err != nil {
			t.Fatal(err)
		}
		pop := f.SamplePopulation(100, stats.Uniform{})
		rep, err := f.RunEpoch(pop)
		if err != nil {
			t.Fatal(err)
		}
		return rep.BreakAwayCount()
	}
	loose := count(0)
	strict := count(0.05)
	if strict > loose {
		t.Errorf("raising alpha should reduce break-aways: %d -> %d", loose, strict)
	}
}

func TestSamplePopulationMixes(t *testing.T) {
	f := oracleFramework(t, nil, 8)
	low := f.SamplePopulation(500, stats.BetaLow())
	high := f.SamplePopulation(500, stats.BetaHigh())
	var bwLow, bwHigh float64
	for _, j := range low.Jobs {
		bwLow += j.BandwidthGBps
	}
	for _, j := range high.Jobs {
		bwHigh += j.BandwidthGBps
	}
	if bwLow >= bwHigh {
		t.Errorf("Beta-Low population should demand less bandwidth: %v vs %v",
			bwLow, bwHigh)
	}
}

func TestNewCustomCatalogValidation(t *testing.T) {
	if _, err := NewFramework(context.Background(), Config{Catalog: []workload.Job{}, Pipeline: PipelineConfig{Oracle: true}}); err == nil {
		t.Error("empty custom catalog accepted")
	}
}

func TestRunEpochUnknownJob(t *testing.T) {
	f := oracleFramework(t, nil, 40)
	pop := workload.Population{Jobs: []workload.Job{{Name: "ghost"}}}
	if _, err := f.RunEpoch(pop); err == nil {
		t.Error("population with unknown job accepted")
	}
}

func TestRunEpochOddPopulation(t *testing.T) {
	f := oracleFramework(t, nil, 41)
	pop := f.SamplePopulation(41, stats.Uniform{})
	rep, err := f.RunEpoch(pop)
	if err != nil {
		t.Fatal(err)
	}
	solo := 0
	for _, j := range rep.Match {
		if j == matching.Unmatched {
			solo++
		}
	}
	if solo != 1 {
		t.Errorf("odd population left %d solo agents", solo)
	}
	if rep.Cluster.Jobs != 41 {
		t.Errorf("cluster ran %d jobs, want 41", rep.Cluster.Jobs)
	}
}

func TestPredictSpanSimPairAttrs(t *testing.T) {
	tel := telemetry.New()
	f, err := NewFramework(context.Background(), Config{Seed: 11, Observe: ObserveConfig{Telemetry: tel}})
	if err != nil {
		t.Fatal(err)
	}
	_ = f
	span := tel.Trace.Find("predict")
	if span == nil {
		t.Fatal("no predict span recorded")
	}
	attrs := map[string]any{}
	for _, a := range span.Snapshot().Attrs {
		attrs[a.Key] = a.Value
	}
	rec, ok := attrs["sim_pairs_recomputed"].(int64)
	if !ok {
		t.Fatalf("sim_pairs_recomputed attr missing or wrong type: %v", attrs)
	}
	if rec <= 0 {
		t.Errorf("sim_pairs_recomputed = %d, want > 0 for a profiled fill", rec)
	}
	// The span attrs are deltas of the registry counters, so they must not
	// exceed the totals.
	reg := tel.Registry()
	if total := reg.Counter("predict.sim_pairs_recomputed").Value(); rec > total {
		t.Errorf("span delta %d exceeds counter total %d", rec, total)
	}
}

// TestTruePenaltyIsTheSimulatedOne holds the epoch's TruePenalty — read
// from the oracle matrix at (own job, partner's job) — equal, bit for
// bit, to policy.TruePenalties simulating each matched pair on its own
// CMP: for every policy, on the unsharded and the sharded market, over an
// odd population (somebody runs alone), with agents that believe a
// predicted matrix different from the oracle, and through a streaming
// repair epoch. Every subtest profiles from the same seed, so every one
// believes the same predicted matrix.
func TestTruePenaltyIsTheSimulatedOne(t *testing.T) {
	ctx := context.Background()
	profiled, err := NewFramework(context.Background(), Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer profiled.Close()
	predicted := profiled.PredictedPenalties() // what agents believe: not the oracle
	if slices.EqualFunc(predicted, profiled.TruePenalties(), slices.Equal[[]float64]) {
		t.Fatal("the profiled matrix is the oracle: the believed-versus-true case is untested")
	}

	check := func(t *testing.T, f *Framework, rep *EpochReport) {
		t.Helper()
		for _, cache := range []*arch.PairCache{nil, f.PairCache()} {
			want, err := policy.TruePenalties(ctx, f.cfg.Machine, rep.Population.Jobs, rep.Match, 3, cache)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(rep.TruePenalty, want) {
				t.Fatalf("TruePenalty differs from the simulated penalties (pair cache: %v)", cache != nil)
			}
		}
		solo := 0
		for i, j := range rep.Match {
			if j == matching.Unmatched {
				solo++
				if rep.TruePenalty[i] != 0 {
					t.Errorf("agent %d runs alone at true penalty %v", i, rep.TruePenalty[i])
				}
			}
		}
		if solo == 0 {
			t.Error("an odd population left nobody alone: the unmatched case is untested")
		}
	}
	eachMarketEpoch(t, func(t *testing.T, f *Framework, rep *EpochReport) {
		t.Helper()
		if !slices.EqualFunc(f.PredictedPenalties(), predicted, slices.Equal[[]float64]) {
			t.Fatal("a framework from the same seed believes another predicted matrix")
		}
		check(t, f, rep)
	})
}

// eachMarketEpoch runs every policy's subtest, on the unsharded market
// and at 4 shards, on a profiled framework from seed 3: a batch epoch
// over 151 agents (odd, so somebody runs alone), then a streaming cold
// start of 151 and a repair of 4 churned agents, handing check each
// report.
func eachMarketEpoch(t *testing.T, check func(t *testing.T, f *Framework, rep *EpochReport)) {
	policies := []policy.Policy{policy.Greedy{}, policy.Complementary{}, policy.StableMarriagePartition{},
		policy.StableMarriageRandom{}, policy.StableRoommate{}, policy.Threshold{Tolerance: 0.1}}
	for _, p := range policies {
		for _, shards := range []int{0, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", p.Name(), shards), func(t *testing.T) {
				f, err := NewFramework(context.Background(), Config{Seed: 3,
					Market: MarketConfig{Policy: p, Shards: shards, Rematch: true}})
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				rep, err := f.RunEpoch(f.SamplePopulation(151, stats.Uniform{}))
				if err != nil {
					t.Fatal(err)
				}
				check(t, f, rep)

				cold, err := f.StreamEpoch(Churn{Join: f.SamplePopulation(151, stats.Uniform{}).Jobs})
				if err != nil {
					t.Fatal(err)
				}
				check(t, f, cold)
				repair, err := f.StreamEpoch(Churn{Join: f.SamplePopulation(2, stats.Uniform{}).Jobs,
					Depart: cold.AgentIDs[10:12]})
				if err != nil {
					t.Fatal(err)
				}
				if repair.Rematch.Mode != "repair" {
					t.Fatalf("churn of 4 over 151 agents ran a %s round", repair.Rematch.Mode)
				}
				check(t, f, repair)
			})
		}
	}
}

// TestReportRecommendationsMatchListing holds a report's assessment, read
// from the market's class table, to the partner-listing scan over the
// same predicted matrix: for every policy, unsharded and at 4 shards,
// batch and streaming (a cold start and a repair), Recommendations() is
// rematch.Recommendations with BlockingPartners cleared, a fresh slice
// each call, and BreakAwayCount() the number of its BreakAway verdicts.
// Only SR's unsharded clear is stable; the other legs leave some agents
// told to break away.
func TestReportRecommendationsMatchListing(t *testing.T) {
	total := 0
	check := func(t *testing.T, f *Framework, rep *EpochReport) {
		t.Helper()
		row := make(map[string]int, len(f.Catalog()))
		for i, job := range f.Catalog() {
			row[job.Name] = i
		}
		jobIdx := make([]int, len(rep.Population.Jobs))
		for i, job := range rep.Population.Jobs {
			jobIdx[i] = row[job.Name]
		}
		want := rematch.Recommendations(jobIdx, f.PredictedPenalties(), rep.Match, f.cfg.Market.Alpha, len(jobIdx))
		breaks := 0
		for i := range want {
			want[i].BlockingPartners = nil
			if want[i].Action == agent.BreakAway {
				breaks++
			}
		}
		got := rep.Recommendations()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("report recommendations differ from the listing scan's")
		}
		if got[0].AgentID = -1; rep.Recommendations()[0].AgentID != 0 {
			t.Fatal("Recommendations handed out a slice the report keeps")
		}
		if rep.BreakAwayCount() != breaks {
			t.Fatalf("BreakAwayCount %d, the listing scan %d BreakAway verdicts", rep.BreakAwayCount(), breaks)
		}
		total += breaks
	}
	eachMarketEpoch(t, check)
	if total == 0 {
		t.Fatal("no agent was told to break away: the BreakAway verdicts are untested")
	}
}
