// Package experiments reproduces every table and figure in the paper's
// evaluation: the workload catalog (Table I), the motivation studies
// (Figures 1-3, 5), the per-application fairness profiles (Figures 7-8),
// preference satisfaction (Figure 9), stability under the break-away
// threshold (Figure 10), workload-mix sensitivity (Figure 11), prediction
// accuracy (Figure 12), scalability (Figure 13), and the Shapley appendix
// (Figure 14).
//
// Each experiment is a method on Lab, parameterized so benchmarks can run
// scaled-down versions; the cmd/cooper-sim tool runs them at paper scale.
// Every policy study clears its populations through the unsharded
// market engine (internal/market) over the job-level oracle matrix, the
// path the framework's epochs take.
package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"cooper/internal/arch"
	"cooper/internal/market"
	"cooper/internal/matching"
	"cooper/internal/policy"
	"cooper/internal/profiler"
	"cooper/internal/rematch"
	"cooper/internal/stats"
	"cooper/internal/workload"
)

// Lab holds the shared experimental apparatus: the simulated machine, the
// calibrated catalog, and the oracle penalty matrix. Experiments that
// evaluate colocation policies use oracle penalties (as the paper does
// when assessing outcomes); the prediction experiments layer sparsity and
// noise on top.
type Lab struct {
	Machine arch.CMP
	Catalog []workload.Job
	// Dense is the oracle job-level penalty matrix: Dense[i][j] is
	// catalog job i's disutility when colocated with catalog job j.
	Dense [][]float64
}

// NewLab builds the apparatus on the default machine.
func NewLab() (*Lab, error) {
	m := arch.DefaultCMP()
	catalog, err := workload.Catalog(m)
	if err != nil {
		return nil, err
	}
	return &Lab{
		Machine: m,
		Catalog: catalog,
		Dense:   profiler.DensePenalties(m, catalog),
	}, nil
}

// clear runs one market clear of a population under policy p through the
// unsharded market engine the framework ships: penalties are matrix (the
// oracle l.Dense, or a completed prediction of it) viewed through each
// agent's catalog row, and r drives the policy's randomness.
func (l *Lab) clear(matrix [][]float64, p policy.Policy, jobs []workload.Job, r *rand.Rand) (*market.Round, error) {
	ep := market.New(market.Engine{
		Config:  market.Config{Policy: p},
		Catalog: l.Catalog,
		Matrix:  matrix,
		Rand:    r,
	}).Begin()
	defer ep.Close()
	return ep.Clear(context.Background(), market.Roster{Jobs: jobs})
}

// oracle views a population, given each agent's catalog row, through the
// oracle penalties.
func (l *Lab) oracle(class []int) matching.Penalties {
	return matching.Penalties{Matrix: l.Dense, Class: class}
}

// breakAways returns how many agents of round the market's assessment
// tells to break away at alpha under the oracle penalties — exactly the
// agents in at least one α-blocking pair, the paper's Figure 10 "agents
// recommending break-away" — and how many blocking pairs there are.
// Both come from class counts, in O(agents + C·k) for C classes and the
// k ≤ C²+C occupied (class, partner class) cells, plus a sort of each
// present class's row.
func (l *Lab) breakAways(round *market.Round, alpha float64) (agents, pairs int) {
	a := rematch.Assess(l.oracle(round.JobIdx), round.Match, alpha, nil)
	return a.BreakAways, a.BlockingPairs
}

// jobIndex maps catalog names to indices.
func (l *Lab) jobIndex() map[string]int {
	idx := make(map[string]int, len(l.Catalog))
	for i, j := range l.Catalog {
		idx[j.Name] = i
	}
	return idx
}

// mustFind returns the catalog job by name or an error.
func (l *Lab) mustFind(name string) (workload.Job, error) {
	j, ok := workload.Find(l.Catalog, name)
	if !ok {
		return workload.Job{}, fmt.Errorf("experiments: job %q not in catalog", name)
	}
	return j, nil
}

// uniformPopulation samples n agents uniformly with a derived seed.
func (l *Lab) uniformPopulation(n int, seed int64) workload.Population {
	return workload.Sample(n, l.Catalog, stats.Uniform{}, stats.NewRand(seed))
}
