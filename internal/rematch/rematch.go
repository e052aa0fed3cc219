// Package rematch implements Cooper's streaming market: online admission
// of arriving agents and incremental repair of the previous stable
// matching under churn, instead of re-clearing the whole market from
// scratch every epoch.
//
// The package has three pieces:
//
//   - The Ledger tracks the live population across epochs under stable
//     agent IDs: joins and departures accumulate between clears, and each
//     epoch's Apply emits a Delta — the new population, the prior
//     matching mapped into its index space, and the dirty set (arrivals
//     plus partners displaced by departures).
//   - Neighborhood and Rewire re-run proposals only inside the affected
//     neighborhood: the dirty agents, their top-K preference candidates
//     from the predicted penalty matrix, and the current partners of
//     those candidates (so rewiring a candidate never silently strands
//     an agent outside the neighborhood). Pairs wholly outside the
//     neighborhood are untouched, which is what makes repair cheap: the
//     sub-instance is O(churn · K) agents, not O(n), because same-job
//     agents share preference rows and therefore candidate lists.
//   - Assess is the market's strategic assessment, in every mode: the
//     agents' message-exchange Action and ExpectedGain and the exact
//     blocking-pair count, from class counts and the matrix's ranked
//     rows, with no partner listed. Recommendations lists the partners
//     too, for tests and the benchmark's replays.
//
// When cumulative churn since the last full clear exceeds a configurable
// fraction of the population (DefaultChurnThreshold), the caller falls
// back to a full re-match and reseeds the ledger — repair quality decays
// as the matching drifts from the policy's global solution, and the
// threshold bounds that drift.
package rematch

import (
	"fmt"
	"math/rand"
	"slices"

	"cooper/internal/matching"
	"cooper/internal/policy"
	"cooper/internal/telemetry"
)

// Defaults for the streaming market.
const (
	// DefaultTopK bounds the preference candidates each dirty agent
	// pulls into its repair neighborhood.
	DefaultTopK = 16
	// DefaultChurnThreshold is the fraction of the base population whose
	// cumulative churn forces a full re-match (the WithChurnThreshold
	// facade default).
	DefaultChurnThreshold = 0.10
	// DefaultRecommendCap is how many blocking partners Recommendations
	// lists per agent when its caller passes no cap.
	DefaultRecommendCap = 8
)

// TopKOrDefault resolves a TopK knob (<= 0 means DefaultTopK).
func TopKOrDefault(k int) int {
	if k <= 0 {
		return DefaultTopK
	}
	return k
}

// ThresholdOrDefault resolves a churn-threshold knob (<= 0 means
// DefaultChurnThreshold).
func ThresholdOrDefault(t float64) float64 {
	if t <= 0 {
		return DefaultChurnThreshold
	}
	return t
}

// Pool is one shard's candidate pool in a sharded market's repair: the
// shard's members, and every agent's shard, so a member's partner is
// tested for membership with one lookup.
type Pool struct {
	Members []int // the shard's agents
	ShardOf []int // agent index → shard, over the whole population
	Shard   int   // the pool's shard
}

// Neighborhood computes the repair neighborhood for the dirty agents:
// the dirty agents themselves, each one's top-K preference candidates
// under pen (lowest penalty first, index tie-break), and the prev
// partners of those candidates. pool restricts the candidates to one
// shard's members (nil means all agents 0..len(prev)-1). A member whose
// prev partner is on another shard is ineligible as a candidate, so the
// result is always closed under prev partnership within the pool. The
// returned indices are ascending and the dirty agents are always
// included. Eligibility is decided once per member; each dirty agent
// then scans the eligible members once, so a neighborhood costs
// O(members + dirty·members), and with a pool nothing of population size
// is allocated.
func Neighborhood(dirty []int, pool *Pool, prev matching.Matching, pen func(i, j int) float64, topK int) []int {
	topK = TopKOrDefault(topK)
	// The eligible candidates, decided once per pool member: a member
	// whose prev partner is outside the pool cannot be rewired without
	// displacing that partner.
	var eligible []int
	if pool == nil {
		eligible = make([]int, len(prev))
		for i := range eligible {
			eligible[i] = i
		}
	} else {
		eligible = make([]int, 0, len(pool.Members))
		for _, j := range pool.Members {
			if p := prev[j]; p != matching.Unmatched && pool.ShardOf[p] != pool.Shard {
				continue
			}
			eligible = append(eligible, j)
		}
	}
	nbhd := append(make([]int, 0, len(dirty)*(topK+1)), dirty...)
	// Top-K candidate selection per dirty agent by bounded insertion:
	// same-job dirty agents produce the same candidate list, so the
	// union stays O(classes · K) regardless of how many agents churned.
	type cand struct {
		p float64
		j int
	}
	best := make([]cand, 0, topK)
	for _, i := range dirty {
		best = best[:0]
		for _, j := range eligible {
			if j == i {
				continue
			}
			c := cand{p: pen(i, j), j: j}
			at := len(best)
			for at > 0 && (best[at-1].p > c.p || (best[at-1].p == c.p && best[at-1].j > c.j)) {
				at--
			}
			if at == topK {
				continue
			}
			if len(best) < topK {
				best = append(best, cand{})
			}
			copy(best[at+1:], best[at:])
			best[at] = c
		}
		for _, c := range best {
			nbhd = append(nbhd, c.j)
		}
	}
	// Close under prev partnership: a neighborhood member's partner is
	// pulled in so re-matching the member cannot strand it. One pass
	// suffices — the added partner's own partner is the member itself.
	slices.Sort(nbhd)
	nbhd = slices.Compact(nbhd)
	for _, i := range nbhd {
		if p := prev[i]; p != matching.Unmatched {
			nbhd = append(nbhd, p)
		}
	}
	slices.Sort(nbhd)
	return slices.Compact(nbhd)
}

// AssignWithin clears the members' sub-market under the policy: it hands
// the policy the class view p with the members as its agents (p.Class[i]
// is agent i's row of p.Matrix, and p's preference table comes along)
// and the members' standalone bandwidths, and returns the policy's
// matching in member-local indices. It is the one place a subset of the
// population is handed to a policy — shard clears, shard repairs and
// neighborhood rewires all go through it — and it allocates O(members):
// no sub-matrix is gathered.
func AssignWithin(members []int, p matching.Penalties, bw func(i int) float64, pol policy.Policy, rng *rand.Rand, metrics *telemetry.Registry) (matching.Matching, error) {
	class := make([]int, len(members))
	subBW := make([]float64, len(members))
	for a, i := range members {
		class[a] = p.Class[i]
		subBW[a] = bw(i)
	}
	return pol.AssignClasses(matching.Penalties{Matrix: p.Matrix, Class: class, Ranks: p.Ranks},
		policy.Context{BandwidthGBps: subBW, Rand: rng, Metrics: metrics})
}

// Rewire re-matches the neighborhood under the policy and returns the
// repaired matching: pairs wholly outside nbhd are preserved from prev,
// every nbhd member is re-assigned from scratch among the neighborhood.
// nbhd must be closed under prev partnership (Neighborhood guarantees
// this); p is the population's class view and bw[i] agent i's
// standalone bandwidth for partitioning policies. The returned Changed
// lists the agents whose partner differs from prev, ascending.
func Rewire(nbhd []int, prev matching.Matching, p matching.Penalties, bw []float64, pol policy.Policy, rng *rand.Rand, metrics *telemetry.Registry) (matching.Matching, []int, error) {
	match := append(matching.Matching(nil), prev...)
	for _, i := range nbhd {
		if p := match[i]; p != matching.Unmatched && match[p] == i {
			match[p] = matching.Unmatched
		}
		match[i] = matching.Unmatched
	}
	if len(nbhd) > 1 {
		lm, err := AssignWithin(nbhd, p, func(i int) float64 { return bw[i] }, pol, rng, metrics)
		if err != nil {
			return nil, nil, fmt.Errorf("rematch: neighborhood of %d: %w", len(nbhd), err)
		}
		for a, b := range lm {
			if b != matching.Unmatched {
				match[nbhd[a]] = nbhd[b]
			}
		}
	}
	if err := match.Validate(); err != nil {
		return nil, nil, fmt.Errorf("rematch: repaired matching invalid: %w", err)
	}
	var changed []int
	for _, i := range nbhd {
		if match[i] != prev[i] {
			changed = append(changed, i)
		}
	}
	return match, changed, nil
}
