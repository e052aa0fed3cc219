package experiments

import (
	"fmt"

	"cooper/internal/game"
	"cooper/internal/matching"
	"cooper/internal/policy"
	"cooper/internal/stats"
	"cooper/internal/workload"
)

// ShapleyAttribution connects §II's theory to the evaluation: the Shapley
// value prescribes each job's fair share of colocation penalties; a
// policy attributes costs fairly when the penalties it hands out
// correlate with those shares. The abstract's claim — "users' performance
// penalties are strongly correlated to their contributions to contention,
// which is fair according to cooperative game theory" — becomes a number
// per policy.
type ShapleyAttribution struct {
	Jobs []string
	// Phi is each job's Shapley share of the grand coalition's penalty,
	// estimated by Monte Carlo over orderings.
	Phi []float64
	// BandwidthCorr is Spearman(phi, bandwidth demand): the theory-side
	// sanity check that fair shares track contentiousness.
	BandwidthCorr float64
	// PolicyCorr maps each policy to Spearman(per-job penalty, phi) on a
	// balanced population.
	PolicyCorr map[string]float64
}

// coalitionValue builds the job-level colocation game: a coalition's
// penalty is the total disutility when its jobs are paired among
// themselves greedily (each job takes the cheapest remaining partner; an
// odd member runs alone). Greedy pairing keeps v(S) cheap enough to
// evaluate inside Monte Carlo Shapley while preserving the game's
// structure: coalitions of meek jobs cost little, coalitions of
// contentious jobs cost a lot.
func (l *Lab) coalitionValue() game.CoalitionValue {
	return func(coalition []int) float64 {
		if len(coalition) < 2 {
			return 0
		}
		// Member a of the coalition is job coalition[a]: its class.
		pen := matching.Penalties{Matrix: l.Dense, Class: coalition}
		match := make(matching.Matching, len(coalition))
		for i := range match {
			match[i] = matching.Unmatched
		}
		agents := make([]int, len(coalition))
		for i := range agents {
			agents[i] = i
		}
		matching.GreedyPair(agents, pen, match)
		var total float64
		for a, b := range match {
			if b != matching.Unmatched {
				total += pen.At(a, b)
			}
		}
		return total
	}
}

// ShapleyAttributionStudy estimates Shapley-fair shares for the 20
// catalog jobs and measures how well each policy's actual penalties track
// them on a balanced population of agentsPerJob agents per job.
func (l *Lab) ShapleyAttributionStudy(samples, agentsPerJob int, seed int64) (*ShapleyAttribution, error) {
	if agentsPerJob < 1 {
		return nil, fmt.Errorf("experiments: agentsPerJob must be positive")
	}
	n := len(l.Catalog)
	phi, err := game.SampledShapley(n, l.coalitionValue(), samples, stats.NewRand(seed))
	if err != nil {
		return nil, err
	}

	res := &ShapleyAttribution{
		Jobs:       make([]string, n),
		Phi:        phi,
		PolicyCorr: make(map[string]float64),
	}
	bw := make([]float64, n)
	for i, j := range l.Catalog {
		res.Jobs[i] = j.Name
		bw[i] = j.BandwidthGBps
	}
	res.BandwidthCorr = stats.Spearman(phi, bw)

	// Balanced population: every job equally represented, so per-job mean
	// penalties are directly comparable to the per-job shares.
	pop := workload.Population{Mix: "balanced"}
	for _, j := range l.Catalog {
		for k := 0; k < agentsPerJob; k++ {
			pop.Jobs = append(pop.Jobs, j)
		}
	}
	for _, p := range policy.All() {
		round, err := l.clear(l.Dense, p, pop.Jobs, stats.NewRand(seed+1))
		if err != nil {
			return nil, err
		}
		pens, _ := round.Penalties()
		perJob := make([]float64, n)
		counts := make([]int, n)
		for i, row := range round.JobIdx {
			perJob[row] += pens[i]
			counts[row]++
		}
		for i := range perJob {
			if counts[i] > 0 {
				perJob[i] /= float64(counts[i])
			}
		}
		res.PolicyCorr[p.Name()] = stats.Spearman(perJob, phi)
	}
	return res, nil
}

// RenderShapley formats the attribution study.
func RenderShapley(s *ShapleyAttribution) string {
	out := "Shapley attribution: policy penalties vs cooperative-game fair shares\n"
	out += fmt.Sprintf("  fair shares track contentiousness: Spearman(phi, GB/s) = %.2f\n\n",
		s.BandwidthCorr)
	out += "  per-job Shapley share of coalition penalty:\n"
	for i, name := range s.Jobs {
		out += fmt.Sprintf("    %-12s %.4f\n", name, s.Phi[i])
	}
	out += "\n  Spearman(policy's per-job penalty, Shapley share):\n"
	for _, p := range []string{"GR", "CO", "SMP", "SMR", "SR"} {
		out += fmt.Sprintf("    %-4s %.2f\n", p, s.PolicyCorr[p])
	}
	return out
}
