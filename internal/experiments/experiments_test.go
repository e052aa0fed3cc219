package experiments

import (
	"math"
	"strings"
	"testing"

	"cooper/internal/policy"
)

var sharedLab *Lab

func lab(t *testing.T) *Lab {
	t.Helper()
	if sharedLab == nil {
		l, err := NewLab()
		if err != nil {
			t.Fatal(err)
		}
		sharedLab = l
	}
	return sharedLab
}

func TestTable1(t *testing.T) {
	rows := lab(t).Table1()
	if len(rows) != 20 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if math.Abs(r.MeasuredGBps-r.PaperGBps) > r.PaperGBps*0.02+0.001 {
			t.Errorf("%s: measured %.2f GB/s vs paper %.2f", r.Name,
				r.MeasuredGBps, r.PaperGBps)
		}
	}
	out := RenderTable1(rows)
	if !strings.Contains(out, "correlation") || !strings.Contains(out, "25.05") {
		t.Error("render missing catalog content")
	}
}

func TestPenaltyProfile(t *testing.T) {
	profile, err := lab(t).PenaltyProfile(policy.Greedy{}, 400, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(profile) != 11 {
		t.Fatalf("profile apps = %d, want 11", len(profile))
	}
	for _, ap := range profile {
		if ap.Samples == 0 {
			t.Errorf("%s: no samples in a 400-agent uniform population", ap.App)
		}
		if ap.MeanPenalty < -0.05 || ap.MeanPenalty > 1 {
			t.Errorf("%s: implausible mean penalty %v", ap.App, ap.MeanPenalty)
		}
	}
}

func TestFigure7FairnessOrdering(t *testing.T) {
	// The paper's central result: stable policies (SMR, SR) link
	// contentiousness to penalty; conventional ones (GR, CO) do not.
	results, err := lab(t).Figure7(600, 2)
	if err != nil {
		t.Fatal(err)
	}
	corr := make(map[string]float64)
	for _, r := range results {
		corr[r.Policy] = r.FairnessCorr
	}
	if corr["SMR"] < 0.5 {
		t.Errorf("SMR fairness correlation %.2f, want strong positive", corr["SMR"])
	}
	if corr["SR"] < 0.5 {
		t.Errorf("SR fairness correlation %.2f, want strong positive", corr["SR"])
	}
	if corr["GR"] > corr["SMR"] {
		t.Errorf("GR (%.2f) should be less fair than SMR (%.2f)",
			corr["GR"], corr["SMR"])
	}
	if corr["CO"] > corr["SMR"] {
		t.Errorf("CO (%.2f) should be less fair than SMR (%.2f)",
			corr["CO"], corr["SMR"])
	}
	out := RenderFigure7(results)
	for _, name := range []string{"GR", "CO", "SMP", "SMR", "SR"} {
		if !strings.Contains(out, name) {
			t.Errorf("render missing policy %s", name)
		}
	}
}

func TestFigure8RanksDerivedFromFigure7(t *testing.T) {
	results, err := lab(t).Figure7(400, 3)
	if err != nil {
		t.Fatal(err)
	}
	ranks := Figure8(results)
	if len(ranks) != len(results) {
		t.Fatalf("rank results = %d", len(ranks))
	}
	for _, r := range ranks {
		if len(r.Apps) != len(r.PenaltyRanks) || len(r.Apps) != len(r.BandwidthRank) {
			t.Fatalf("%s: ragged rank data", r.Policy)
		}
		if r.RankCorr < -1 || r.RankCorr > 1 {
			t.Errorf("%s: rank corr %v", r.Policy, r.RankCorr)
		}
	}
	out := RenderFigure8(ranks)
	if !strings.Contains(out, "penalty rank") {
		t.Error("render missing rank header")
	}
}

func TestMotivation(t *testing.T) {
	m, err := lab(t).Motivation()
	if err != nil {
		t.Fatal(err)
	}
	// Stability-optimal matching must not have more blocking pairs than
	// the performance-optimal one, and the paper's story: stability
	// enhances fairness.
	if m.StabilityBlocking > m.PerformanceBlocking {
		t.Errorf("stability blocking %d > performance blocking %d",
			m.StabilityBlocking, m.PerformanceBlocking)
	}
	if m.StabilityFairness < m.PerformanceFairness {
		t.Errorf("stability fairness %.2f should be >= performance fairness %.2f",
			m.StabilityFairness, m.PerformanceFairness)
	}
	out := RenderMotivation(m)
	if !strings.Contains(out, "x264") || !strings.Contains(out, "blocking pairs") {
		t.Error("render missing content")
	}
}

func TestFigure5(t *testing.T) {
	tr, err := Figure5()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"m1": "c2", "m2": "c3", "m3": "c1"}
	for k, v := range want {
		if tr.Pairs[k] != v {
			t.Errorf("%s -> %s, want %s", k, tr.Pairs[k], v)
		}
	}
	if tr.Rounds != 2 {
		t.Errorf("rounds = %d, want 2", tr.Rounds)
	}
	if out := RenderFigure5(tr); !strings.Contains(out, "m1 -> c2") {
		t.Error("render missing pairing")
	}
}

func TestFigure9MajorityAtLeastAsWell(t *testing.T) {
	results, err := lab(t).Figure9(3, 200, 0.005, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 6 {
		t.Fatalf("results = %d, want 6 policy pairs", len(results))
	}
	for _, r := range results {
		total := r.Improved + r.Unchanged + r.Degraded
		if total != r.Populations*r.AgentsPerPop {
			t.Errorf("%s: counted %d agents, want %d", r.Label(), total,
				r.Populations*r.AgentsPerPop)
		}
		// The paper: "a large majority of agents performs at least as
		// well" when switching to stable policies.
		atLeast := float64(r.Improved+r.Unchanged) / float64(total)
		if atLeast < 0.5 {
			t.Errorf("%s: only %.0f%% at least as well", r.Label(), 100*atLeast)
		}
	}
	if out := RenderFigure9(results); !strings.Contains(out, "SR/GR") {
		t.Error("render missing labels")
	}
}

func TestFigure10StabilityOrdering(t *testing.T) {
	alphas := []float64{0, 0.01, 0.02, 0.03, 0.04, 0.05}
	results, err := lab(t).Figure10(5, 200, alphas, 5)
	if err != nil {
		t.Fatal(err)
	}
	med := make(map[string][]float64)
	for _, r := range results {
		if len(r.Boxes) != len(alphas) {
			t.Fatalf("%s: %d boxes", r.Policy, len(r.Boxes))
		}
		for i := range alphas {
			med[r.Policy] = append(med[r.Policy], r.MedianBlocking(i))
		}
		// Break-away recommendations shrink as alpha grows.
		for i := 1; i < len(alphas); i++ {
			if med[r.Policy][i] > med[r.Policy][i-1] {
				t.Errorf("%s: break-away counts rose with alpha: %v", r.Policy, med[r.Policy])
			}
		}
		// The metric is agents, so it is bounded by the population.
		for i := range alphas {
			if med[r.Policy][i] > 200 {
				t.Errorf("%s: median %v exceeds population size", r.Policy, med[r.Policy][i])
			}
		}
	}
	// SMR is the most stable policy; GR among the least.
	if med["SMR"][0] > med["GR"][0] {
		t.Errorf("SMR median blocking %v should be <= GR %v", med["SMR"][0], med["GR"][0])
	}
	if out := RenderFigure10(results); !strings.Contains(out, "alpha=2%") {
		t.Error("render missing alpha labels")
	}
}

func TestFigure11MixesAndPolicies(t *testing.T) {
	cells, err := lab(t).Figure11(300, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4*5 {
		t.Fatalf("cells = %d, want 20", len(cells))
	}
	means := make(map[string]map[string]float64)
	for _, c := range cells {
		if means[c.Mix] == nil {
			means[c.Mix] = make(map[string]float64)
		}
		means[c.Mix][c.Policy] = c.Mean
	}
	// Beta-High (contentious mix) penalties exceed Beta-Low for every
	// policy.
	for _, p := range []string{"GR", "CO", "SMP", "SMR", "SR"} {
		if means["Beta-High"][p] <= means["Beta-Low"][p] {
			t.Errorf("%s: Beta-High mean %.4f should exceed Beta-Low %.4f",
				p, means["Beta-High"][p], means["Beta-Low"][p])
		}
	}
	if out := RenderFigure11(cells); !strings.Contains(out, "Beta-High") {
		t.Error("render missing mixes")
	}
}

func TestFigure12Shape(t *testing.T) {
	points, err := lab(t).Figure12([]float64{0.15, 0.25, 0.75}, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	byIter := make(map[int]map[float64]float64)
	for _, p := range points {
		if byIter[p.Iterations] == nil {
			byIter[p.Iterations] = make(map[float64]float64)
		}
		byIter[p.Iterations][p.Fraction] = p.Accuracy
	}
	two := byIter[2]
	// Paper: error unacceptably high at low sampling, falls quickly by
	// 25%, high by 75%.
	if two[0.25] < 0.65 {
		t.Errorf("accuracy at 25%% = %.2f, want >= 0.65 (paper ~0.83)", two[0.25])
	}
	if two[0.75] < 0.90 {
		t.Errorf("accuracy at 75%% = %.2f, want >= 0.90 (paper ~0.95)", two[0.75])
	}
	if two[0.15] > two[0.25] {
		t.Errorf("accuracy should rise with sampling: %.2f -> %.2f",
			two[0.15], two[0.25])
	}
	// A second iteration helps at low sampling (fills entries iteration
	// one could not reach).
	if byIter[1][0.25] > two[0.25]+0.02 {
		t.Errorf("one iteration (%.2f) should not beat two (%.2f) at 25%%",
			byIter[1][0.25], two[0.25])
	}
	if out := RenderFigure12(points); !strings.Contains(out, "Iterations") {
		t.Error("render missing header")
	}
}

func TestFigure13ScalabilityTrend(t *testing.T) {
	// Small populations are high-variance; a dozen trials per size keeps
	// the trend assertion out of seed-luck territory.
	points, err := lab(t).Figure13([]int{10, 100, 400}, 12, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("points = %d", len(points))
	}
	// Fairness strengthens with population size.
	if points[2].FairnessCorr <= points[0].FairnessCorr {
		t.Errorf("fairness should strengthen with scale: %v", points)
	}
	if out := RenderFigure13(points); !strings.Contains(out, "Fairness corr") {
		t.Error("render missing header")
	}
}

// Figure 13's within-application spread folds a sum over applications;
// in map order its last bit drifts between same-seed runs.
func TestFigure13Deterministic(t *testing.T) {
	run := func() []Figure13Point {
		points, err := lab(t).Figure13([]int{100, 400}, 3, 7)
		if err != nil {
			t.Fatal(err)
		}
		return points
	}
	want := run()
	for k := 0; k < 4; k++ {
		for i, p := range run() {
			if math.Float64bits(p.PenaltyStdDev) != math.Float64bits(want[i].PenaltyStdDev) ||
				math.Float64bits(p.FairnessCorr) != math.Float64bits(want[i].FairnessCorr) {
				t.Fatalf("run %d, size %d: stddev %v corr %v, first run %v %v", k, p.Population,
					p.PenaltyStdDev, p.FairnessCorr, want[i].PenaltyStdDev, want[i].FairnessCorr)
			}
		}
	}
}

func TestFigure14(t *testing.T) {
	r, err := Figure14()
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1.5, 2.0, 2.5}
	for i := range want {
		if math.Abs(r.Shapley[i]-want[i]) > 1e-12 {
			t.Errorf("Shapley[%d] = %v, want %v", i, r.Shapley[i], want[i])
		}
	}
	if len(r.Rows) != 6 {
		t.Fatalf("rows = %d, want 6 permutations", len(r.Rows))
	}
	// The {A, C, B} row: MA=0, MC=4, MB=2.
	for _, row := range r.Rows {
		if row.Order[0] == "A" && row.Order[1] == "C" {
			if row.Marginals[0] != 0 || row.Marginals[2] != 4 || row.Marginals[1] != 2 {
				t.Errorf("{A,C,B} marginals = %v, want [0 2 4]", row.Marginals)
			}
		}
	}
	if out := RenderFigure14(r); !strings.Contains(out, "phi = E[M]") {
		t.Error("render missing Shapley row")
	}
}

func TestPerformanceWithinFivePercent(t *testing.T) {
	// Abstract claim: "performs within 5% of prior heuristics".
	l := lab(t)
	meanPenalty := func(p policy.Policy) float64 {
		profile, err := l.PenaltyProfile(p, 400, 9)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		var n int
		for _, ap := range profile {
			sum += ap.MeanPenalty * float64(ap.Samples)
			n += ap.Samples
		}
		return sum / float64(n)
	}
	gr := meanPenalty(policy.Greedy{})
	for _, p := range []policy.Policy{
		policy.StableMarriageRandom{},
		policy.StableRoommate{},
		policy.StableMarriagePartition{},
	} {
		if got := meanPenalty(p); got > gr+0.05 {
			t.Errorf("%s mean penalty %.4f not within 5%% of GR %.4f",
				p.Name(), got, gr)
		}
	}
}
