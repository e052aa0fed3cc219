package policy

import (
	"context"
	"fmt"

	"cooper/internal/arch"
	"cooper/internal/matching"
	"cooper/internal/parallel"
	"cooper/internal/workload"
)

// TruePenalties evaluates a matching against the machine's analytic
// contention model: each matched pair occupies its own CMP, so the pairs
// are simulated independently and fan out across workers (<= 0 means
// GOMAXPROCS). jobs[i] is agent i's job; unmatched agents run alone and
// suffer zero penalty. When cache is keyed to m, every solve is memoized
// through it, so repeated calls over a fixed catalog re-simulate
// nothing. The solver is deterministic: results are identical at any
// worker count.
//
// It is the reference assessment: a pair's penalties depend only on the
// two jobs, so the framework reads an epoch's true penalties from the
// oracle matrix (truth[job i][job of i's partner]) instead, and tests
// hold the two equal bit for bit.
func TruePenalties(ctx context.Context, m arch.CMP, jobs []workload.Job, match matching.Matching, workers int, cache *arch.PairCache) ([]float64, error) {
	n := len(match)
	if len(jobs) != n {
		return nil, fmt.Errorf("policy: %d jobs for %d matched agents", len(jobs), n)
	}
	type pair struct{ a, b int }
	var pairs []pair
	for i, j := range match {
		if j == matching.Unmatched {
			continue
		}
		if j < 0 || j >= n {
			return nil, fmt.Errorf("policy: agent %d matched to out-of-range %d", i, j)
		}
		if i < j {
			pairs = append(pairs, pair{i, j})
		}
	}
	penalties := make([]float64, n)
	useCache := cache.Keyed(m)
	err := parallel.ForEach(ctx, workers, len(pairs), func(k int) error {
		p := pairs[k]
		ja, jb := jobs[p.a], jobs[p.b]
		var soloA, soloB, pa, pb arch.Perf
		if useCache {
			soloA, soloB = cache.Solo(ja.Name, ja.Model), cache.Solo(jb.Name, jb.Model)
			pa, pb = cache.Pair(ja.Name, ja.Model, jb.Name, jb.Model)
		} else {
			soloA, soloB = m.Solo(ja.Model), m.Solo(jb.Model)
			pa, pb = m.Pair(ja.Model, jb.Model)
		}
		penalties[p.a], penalties[p.b] = rawPenalty(soloA, pa), rawPenalty(soloB, pb)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return penalties, nil
}

// rawPenalty is the unclamped disutility d = 1 - colocated/standalone —
// the same formula profiler.DensePenalties uses, so assessment by
// simulation reproduces assessment by matrix lookup exactly (slightly
// negative values and all).
func rawPenalty(solo, colocated arch.Perf) float64 {
	if solo.IPS <= 0 {
		return 0
	}
	return 1 - colocated.IPS/solo.IPS
}
