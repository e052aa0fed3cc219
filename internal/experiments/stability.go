package experiments

import (
	"fmt"

	"cooper/internal/policy"
	"cooper/internal/stats"
)

// Figure9Result counts agents whose performance improved, stayed, or
// degraded when the system switches from a conventional policy to a
// stable one (e.g. SR/GR), averaged over several populations.
type Figure9Result struct {
	Stable, Baseline string
	Improved         int
	Unchanged        int
	Degraded         int
	Populations      int
	AgentsPerPop     int
}

// Label returns the paper's "S*/baseline" bar label.
func (r Figure9Result) Label() string {
	return fmt.Sprintf("%s/%s", r.Stable, r.Baseline)
}

// Figure9 runs the preference-satisfaction comparison for every stable/
// conventional policy pair over pops populations of n uniform agents.
// epsilon is the penalty difference below which an agent counts as
// unchanged.
func (l *Lab) Figure9(pops, n int, epsilon float64, seed int64) ([]Figure9Result, error) {
	stables := []policy.Policy{
		policy.StableRoommate{},
		policy.StableMarriageRandom{},
		policy.StableMarriagePartition{},
	}
	baselines := []policy.Policy{policy.Greedy{}, policy.Complementary{}}

	var out []Figure9Result
	for _, base := range baselines {
		for _, stable := range stables {
			res := Figure9Result{
				Stable:       stable.Name(),
				Baseline:     base.Name(),
				Populations:  pops,
				AgentsPerPop: n,
			}
			for k := 0; k < pops; k++ {
				popSeed := seed + int64(k)
				pop := l.uniformPopulation(n, popSeed)
				rStable, err := l.clear(l.Dense, stable, pop.Jobs, stats.NewRand(popSeed+1000))
				if err != nil {
					return nil, err
				}
				rBase, err := l.clear(l.Dense, base, pop.Jobs, stats.NewRand(popSeed+2000))
				if err != nil {
					return nil, err
				}
				pStable, _ := rStable.Penalties()
				pBase, _ := rBase.Penalties()
				for i := range pStable {
					diff := pBase[i] - pStable[i] // positive = stable is better
					switch {
					case diff > epsilon:
						res.Improved++
					case diff < -epsilon:
						res.Degraded++
					default:
						res.Unchanged++
					}
				}
			}
			out = append(out, res)
		}
	}
	return out, nil
}

// Figure10Result is one policy's stability analysis: the distribution,
// across populations, of how many agents recommend breaking away from
// their assigned colocation (i.e. belong to at least one blocking pair),
// for each break-away threshold alpha. This is the paper's Figure 10
// metric — its y-axis tops out near the population size. Raw blocking-
// pair counts are kept alongside.
type Figure10Result struct {
	Policy string
	Alphas []float64
	// Counts[k] holds, for every population, the number of agents
	// recommending break-away at Alphas[k].
	Counts [][]float64
	// PairCounts[k] holds the corresponding raw blocking-pair counts.
	PairCounts [][]float64
	// Boxes[k] summarizes Counts[k].
	Boxes []stats.Boxplot
}

// Figure10 measures break-away recommendations under every policy for
// pops populations of n uniform agents, at each alpha (fractions, e.g.
// 0.02 for 2%).
func (l *Lab) Figure10(pops, n int, alphas []float64, seed int64) ([]Figure10Result, error) {
	var out []Figure10Result
	for _, p := range policy.All() {
		res := Figure10Result{
			Policy:     p.Name(),
			Alphas:     alphas,
			Counts:     make([][]float64, len(alphas)),
			PairCounts: make([][]float64, len(alphas)),
		}
		for k := 0; k < pops; k++ {
			popSeed := seed + int64(k)
			pop := l.uniformPopulation(n, popSeed)
			round, err := l.clear(l.Dense, p, pop.Jobs, stats.NewRand(popSeed+3000))
			if err != nil {
				return nil, err
			}
			for ai, alpha := range alphas {
				agents, pairs := l.breakAways(round, alpha)
				res.Counts[ai] = append(res.Counts[ai], float64(agents))
				res.PairCounts[ai] = append(res.PairCounts[ai], float64(pairs))
			}
		}
		for _, counts := range res.Counts {
			res.Boxes = append(res.Boxes, stats.NewBoxplot(counts))
		}
		out = append(out, res)
	}
	return out, nil
}

// MedianBlocking returns the median blocking-pair count at the given alpha
// index.
func (r Figure10Result) MedianBlocking(alphaIdx int) float64 {
	return r.Boxes[alphaIdx].Median
}
