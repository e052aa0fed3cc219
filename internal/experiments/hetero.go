package experiments

import (
	"fmt"
	"sort"

	"cooper/internal/arch"
	"cooper/internal/matching"
	"cooper/internal/policy"
	"cooper/internal/stats"
)

// SmallCMP is a weaker machine class for the heterogeneity study: fewer
// cores, a smaller LLC and less memory bandwidth than the evaluation
// server — the kind of older node a real private cluster accumulates.
func SmallCMP() arch.CMP {
	m := arch.DefaultCMP()
	m.Name = "xeon-small"
	m.Cores = 8
	m.Threads = 16
	m.FreqHz = 2.1e9
	m.LLCBytes = 15 << 20
	m.MemBWBytes = 34e9
	return m
}

// HeteroResult contrasts heterogeneity-blind and -aware placement of the
// same stable matching onto a half-big, half-small cluster. The paper
// assumes homogeneous processors (§III-A); this study measures what that
// assumption is worth and how much a placement heuristic recovers.
type HeteroResult struct {
	Pairs         int
	BigMachines   int
	SmallMachines int
	// HomogeneousMean is the mean penalty if every pair ran on a big
	// machine (the paper's setting).
	HomogeneousMean float64
	// BlindMean is the mean penalty when pairs are placed on machine
	// types arbitrarily (alternating).
	BlindMean float64
	// AwareMean is the mean penalty when the pairs benefiting most from
	// strong hardware get the big machines.
	AwareMean float64
	// SmallPenaltyInflation is the mean penalty ratio small/big across
	// pairs — how much harder contention bites on the weak nodes.
	SmallPenaltyInflation float64
}

// Heterogeneity runs the study on a uniform population matched by SMR
// (using big-machine penalties, as a heterogeneity-unaware coordinator
// would).
func (l *Lab) Heterogeneity(n int, seed int64) (*HeteroResult, error) {
	pop := l.uniformPopulation(n, seed)
	round, err := l.clear(l.Dense, policy.StableMarriageRandom{}, pop.Jobs, stats.NewRand(seed+3))
	if err != nil {
		return nil, err
	}

	big := l.Machine
	small := SmallCMP()
	type pair struct {
		a, b    int
		onBig   float64 // mean pair penalty vs the homogeneous baseline
		onSmall float64
	}
	var pairs []pair
	// Across machine classes the meaningful penalty is throughput lost
	// versus the homogeneous baseline (solo on a big machine): relative
	// disutility per machine would hide the weak nodes' slowness, since
	// their solo baselines are already degraded.
	penaltyOn := func(m arch.CMP, a, b int) float64 {
		soloA := big.Solo(pop.Jobs[a].Model)
		soloB := big.Solo(pop.Jobs[b].Model)
		pa, pb := m.Pair(pop.Jobs[a].Model, pop.Jobs[b].Model)
		return (arch.Disutility(soloA, pa) + arch.Disutility(soloB, pb)) / 2
	}
	for i, j := range round.Match {
		if j == matching.Unmatched || i > j {
			continue
		}
		pairs = append(pairs, pair{
			a: i, b: j,
			onBig:   penaltyOn(big, i, j),
			onSmall: penaltyOn(small, i, j),
		})
	}
	if len(pairs) == 0 {
		return nil, fmt.Errorf("experiments: no pairs to place")
	}

	res := &HeteroResult{
		Pairs:         len(pairs),
		BigMachines:   (len(pairs) + 1) / 2,
		SmallMachines: len(pairs) / 2,
	}
	var homSum, inflSum float64
	inflCount := 0
	for _, p := range pairs {
		homSum += p.onBig
		if p.onBig > 0.001 {
			inflSum += p.onSmall / p.onBig
			inflCount++
		}
	}
	res.HomogeneousMean = homSum / float64(len(pairs))
	if inflCount > 0 {
		res.SmallPenaltyInflation = inflSum / float64(inflCount)
	}

	// Blind placement: alternate machine types in matching order.
	var blindSum float64
	for k, p := range pairs {
		if k%2 == 0 {
			blindSum += p.onBig
		} else {
			blindSum += p.onSmall
		}
	}
	res.BlindMean = blindSum / float64(len(pairs))

	// Aware placement: a coordinator with per-type profiles gives the big
	// machines to the pairs that benefit most from them (largest
	// small-vs-big penalty gap). Raw demand is a poor proxy — the
	// hungriest pairs saturate even the big machines, so the marginal
	// benefit peaks for the middle of the distribution.
	ordered := append([]pair(nil), pairs...)
	sort.Slice(ordered, func(x, y int) bool {
		return ordered[x].onSmall-ordered[x].onBig > ordered[y].onSmall-ordered[y].onBig
	})
	var awareSum float64
	for k, p := range ordered {
		if k < res.BigMachines {
			awareSum += p.onBig
		} else {
			awareSum += p.onSmall
		}
	}
	res.AwareMean = awareSum / float64(len(pairs))
	return res, nil
}

// RenderHeterogeneity formats the study.
func RenderHeterogeneity(r *HeteroResult) string {
	return fmt.Sprintf(`Heterogeneity: SMR pairs placed on a half-big, half-small cluster
  pairs %d on %d big + %d small machines
  mean pair penalty, all-big (paper's setting): %.4f
  heterogeneity-blind placement:                %.4f
  type-aware placement (best-benefit -> big):   %.4f
  contention bites %.1fx harder on the small nodes
`, r.Pairs, r.BigMachines, r.SmallMachines,
		r.HomogeneousMean, r.BlindMean, r.AwareMean, r.SmallPenaltyInflation)
}
