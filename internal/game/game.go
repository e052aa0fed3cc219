// Package game implements the cooperative game theory underpinning
// Cooper: coalition penalty functions, the Shapley value (exact and
// sampled) that justifies the paper's fairness criterion, axiom checks,
// and exhaustive matching analysis for small populations (the paper's
// Figures 2 and 3 motivation study).
//
// The Shapley value (paper Equation 1) divides a coalition's penalty
// among its members in proportion to their marginal contributions,
// averaged over every order in which the coalition could have formed. The
// paper does not apply Shapley directly — performance losses are not
// transferable between colocated jobs — but uses it to justify the
// realistic fairness goal that more contentious jobs incur larger
// penalties.
package game

import (
	"fmt"
	"math/rand"

	"cooper/internal/matching"
)

// CoalitionValue maps a coalition (a set of agent indices) to its total
// penalty. Implementations must be well-defined for every subset of
// {0..n-1} including the empty set.
type CoalitionValue func(coalition []int) float64

// AdditiveInterference returns the appendix's simple coalition model:
// agents contribute interference I_i, singletons (and the empty coalition)
// run penalty-free, and any coalition of two or more agents suffers the
// sum of its members' interference.
func AdditiveInterference(interference []float64) CoalitionValue {
	return func(coalition []int) float64 {
		if len(coalition) < 2 {
			return 0
		}
		var sum float64
		for _, i := range coalition {
			sum += interference[i]
		}
		return sum
	}
}

// Shapley computes exact Shapley values for an n-agent game by
// enumerating all n! agent orderings (paper Equation 1). Exponential:
// intended for the small motivating examples (n <= ~10).
func Shapley(n int, v CoalitionValue) ([]float64, error) {
	if n < 0 {
		return nil, fmt.Errorf("game: negative agent count %d", n)
	}
	if n > 10 {
		return nil, fmt.Errorf("game: exact Shapley infeasible for n=%d (use SampledShapley)", n)
	}
	phi := make([]float64, n)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	count := 0
	permute(perm, 0, func(p []int) {
		count++
		prefix := make([]int, 0, n)
		prev := v(prefix)
		for _, agent := range p {
			prefix = append(prefix, agent)
			cur := v(prefix)
			phi[agent] += cur - prev
			prev = cur
		}
	})
	if count > 0 {
		for i := range phi {
			phi[i] /= float64(count)
		}
	}
	return phi, nil
}

// permute enumerates permutations of p in place (Heap's algorithm would
// also do; recursive swap enumeration keeps the prefix order natural).
func permute(p []int, k int, fn func([]int)) {
	if k == len(p) {
		fn(p)
		return
	}
	for i := k; i < len(p); i++ {
		p[k], p[i] = p[i], p[k]
		permute(p, k+1, fn)
		p[k], p[i] = p[i], p[k]
	}
}

// SampledShapley approximates Shapley values by averaging marginal
// contributions over `samples` random orderings — the standard Monte
// Carlo estimator, usable for populations far beyond exact enumeration.
func SampledShapley(n int, v CoalitionValue, samples int, r *rand.Rand) ([]float64, error) {
	if n < 0 {
		return nil, fmt.Errorf("game: negative agent count %d", n)
	}
	if samples <= 0 {
		return nil, fmt.Errorf("game: need positive sample count, got %d", samples)
	}
	phi := make([]float64, n)
	for s := 0; s < samples; s++ {
		p := r.Perm(n)
		prefix := make([]int, 0, n)
		prev := v(prefix)
		for _, agent := range p {
			prefix = append(prefix, agent)
			cur := v(prefix)
			phi[agent] += cur - prev
			prev = cur
		}
	}
	for i := range phi {
		phi[i] /= float64(samples)
	}
	return phi, nil
}

// CheckEfficiency reports whether the Shapley values sum to the grand
// coalition's value within eps (the efficiency axiom).
func CheckEfficiency(phi []float64, v CoalitionValue, eps float64) bool {
	grand := make([]int, len(phi))
	for i := range grand {
		grand[i] = i
	}
	var sum float64
	for _, p := range phi {
		sum += p
	}
	diff := sum - v(grand)
	return diff <= eps && diff >= -eps
}

// MarginalContribution returns agent i's marginal penalty when joining
// coalition S (which must not already contain i): p(S ∪ {i}) − p(S).
func MarginalContribution(v CoalitionValue, s []int, i int) float64 {
	with := append(append([]int(nil), s...), i)
	return v(with) - v(s)
}

// EnumerateMatchings calls fn with every perfect matching of n agents
// (n even). fn receives a reused slice; it must copy if it retains it.
// The number of matchings is (n-1)!! so this is for small n only.
func EnumerateMatchings(n int, fn func(matching.Matching)) error {
	if n%2 != 0 {
		return fmt.Errorf("game: cannot perfectly match %d agents", n)
	}
	if n > 14 {
		return fmt.Errorf("game: enumeration infeasible for n=%d", n)
	}
	m := make(matching.Matching, n)
	for i := range m {
		m[i] = matching.Unmatched
	}
	var rec func()
	rec = func() {
		first := -1
		for i := 0; i < n; i++ {
			if m[i] == matching.Unmatched {
				first = i
				break
			}
		}
		if first == -1 {
			fn(m)
			return
		}
		for j := first + 1; j < n; j++ {
			if m[j] != matching.Unmatched {
				continue
			}
			m[first], m[j] = j, first
			rec()
			m[first], m[j] = matching.Unmatched, matching.Unmatched
		}
	}
	rec()
	return nil
}

// TotalPenalty sums every agent's disutility under the matching, given the
// pairwise penalty matrix d (d[i][j] = i's penalty when colocated with j).
// Unmatched agents run alone and contribute zero.
func TotalPenalty(m matching.Matching, d [][]float64) float64 {
	var sum float64
	for i, j := range m {
		if j != matching.Unmatched {
			sum += d[i][j]
		}
	}
	return sum
}

// MatchingAnalysis compares every perfect matching of a small population,
// reporting the system-optimal (minimum total penalty) matching and the
// most stable matching (fewest blocking pairs, total penalty as the
// tiebreak) — the comparison behind the paper's Figures 2 and 3.
type MatchingAnalysis struct {
	Optimal              matching.Matching
	OptimalPenalty       float64
	OptimalBlockingPairs int
	Stable               matching.Matching
	StablePenalty        float64
	StableBlockingPairs  int
}

// Analyze enumerates all perfect matchings for the penalty matrix d.
func Analyze(d [][]float64) (MatchingAnalysis, error) {
	n := len(d)
	a := MatchingAnalysis{}
	first := true
	err := EnumerateMatchings(n, func(m matching.Matching) {
		pen := TotalPenalty(m, d)
		blocks := len(matching.Dense(d).BlockingPairs(m, 0))
		if first || pen < a.OptimalPenalty {
			a.Optimal = append(matching.Matching(nil), m...)
			a.OptimalPenalty = pen
			a.OptimalBlockingPairs = blocks
		}
		if first || blocks < a.StableBlockingPairs ||
			(blocks == a.StableBlockingPairs && pen < a.StablePenalty) {
			a.Stable = append(matching.Matching(nil), m...)
			a.StablePenalty = pen
			a.StableBlockingPairs = blocks
		}
		first = false
	})
	if err != nil {
		return MatchingAnalysis{}, err
	}
	if first {
		return MatchingAnalysis{}, fmt.Errorf("game: no matchings for %d agents", n)
	}
	return a, nil
}

// SharingIncentive evaluates the fair-division "sharing incentive"
// property for a colocation matching: the fraction of agents doing at
// least as well under the matching as their outside option of being
// paired with a uniformly random co-runner (the colocation analogue of
// the equal-division benchmark in the allocation games the paper cites).
// A policy with a high sharing-incentive fraction gives almost every user
// a reason to join the shared system rather than take pot luck. Penalties
// are read through their class view, so a population costs O(n²) lookups
// and no agent-level matrix.
func SharingIncentive(m matching.Matching, p matching.Penalties) (float64, error) {
	n := len(m)
	if err := p.Validate(); err != nil {
		return 0, err
	}
	if p.Agents() != n {
		return 0, fmt.Errorf("game: matching over %d agents but %d penalty agents", n, p.Agents())
	}
	if n == 0 {
		return 1, nil
	}
	satisfied := 0
	for i := 0; i < n; i++ {
		var expected float64
		for j := 0; j < n; j++ {
			if j != i {
				expected += p.At(i, j)
			}
		}
		if n > 1 {
			expected /= float64(n - 1)
		}
		actual := 0.0
		if m[i] != matching.Unmatched {
			actual = p.At(i, m[i])
		}
		if actual <= expected+1e-12 {
			satisfied++
		}
	}
	return float64(satisfied) / float64(n), nil
}
