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
	// cumulative churn forces a full re-match (the default of
	// Market.ChurnThreshold and cooperd -churn-threshold).
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

// Pool is one shard's candidate pool in a sharded market's repair: the
// shard's members, and every agent's shard, so a member's partner is
// tested for membership with one lookup.
type Pool struct {
	Members []int // the shard's agents, ascending
	ShardOf []int // agent index → shard, over the whole population
	Shard   int   // the pool's shard
}

// Scratch is Neighborhood's and Assess's working memory, reused across
// calls; the zero value is ready. Not safe for concurrent use.
type Scratch struct {
	start, bucket []int  // class c's eligible pool positions: bucket[start[c]:start[c+1]], ascending
	slot, lists   []int  // class c's list: lists[(slot[c]-1)·(K+1):][:K+1], -1 past its end
	out           []int  // the result
	in            []bool // by pool position: eligible, then in the neighborhood
	cnt, want     []int  // Assess's count tables
}

// grow returns buf holding n zero values, in its own array when that is
// large enough. It allocates only to grow: append(buf[:0], make([]T,
// n)...) allocates the made slice too where the compiler instruments
// the code, as under the race detector.
func grow[T any](buf []T, n int) []T {
	buf = slices.Grow(buf[:0], n)[:n]
	clear(buf)
	return buf
}

// Neighborhood computes the repair neighborhood for the dirty agents:
// the dirty agents themselves, each one's top-K preference candidates
// under the class view p (lowest penalty first, index tie-break), and
// the prev partners of all of them. pool restricts the candidates to
// one shard's members, and holds the dirty agents (nil means all agents
// 0..len(prev)-1). A member whose prev partner is on another shard is
// ineligible as a candidate, so the result is closed under prev
// partnership within the pool. The returned indices are ascending.
//
// Dirty agents of one class share their candidates: one counting sort
// buckets the eligible members by class, each bucket ascending; each
// dirty class walks its row of p's preference table (a view without one
// is ranked on entry, Penalties.WithRanks) and takes members bucket by
// bucket until it holds K+1, merging the buckets of equal-penalty
// classes — adjacent in the row — by index, which is the (penalty,
// index) order; each dirty agent takes the first K of its class's list,
// skipping itself. A mark per pool position closes the result under
// prev and reads it back ascending. A call costs O(members + dirty
// classes · (C + K) + dirty · K) for C classes. With a pool nothing of
// population size is allocated, and once s has grown, nothing but the
// result.
func Neighborhood(dirty []int, pool *Pool, prev matching.Matching, p matching.Penalties, topK int, s *Scratch) []int {
	p = p.WithRanks()
	m, classes, want := len(prev), len(p.Matrix), TopKOrDefault(topK)+1
	agent, position := func(x int) int { return x }, func(j int) (int, bool) { return j, true }
	if pool != nil {
		m = len(pool.Members)
		agent = func(x int) int { return pool.Members[x] }
		position = func(j int) (int, bool) { return slices.BinarySearch(pool.Members, j) }
	}
	// Class c's count lands in start[c+2]; placing its members then moves
	// start[c+1] from c's first slot to its end, c+1's first.
	s.start, s.bucket, s.in = grow(s.start, classes+2), grow(s.bucket, m), grow(s.in, m)
	for x := range m {
		if q := prev[agent(x)]; q == matching.Unmatched || pool == nil || pool.ShardOf[q] == pool.Shard {
			s.start[p.Class[agent(x)]+2]++
			s.in[x] = true
		}
	}
	for c := 2; c < len(s.start); c++ {
		s.start[c] += s.start[c-1]
	}
	for x, eligible := range s.in {
		if c := p.Class[agent(x)] + 1; eligible {
			s.bucket[s.start[c]], s.start[c] = x, s.start[c]+1
		}
	}

	s.slot, s.in = grow(s.slot, classes), grow(s.in, m)
	s.lists, s.out = slices.Grow(s.lists[:0], want*min(len(dirty), classes)), slices.Grow(s.out[:0], 2*want*len(dirty))
	for _, i := range dirty {
		c, self := p.Class[i], -1
		if s.slot[c] == 0 {
			s.slot[c] = 1 + len(s.lists)/want
			s.candidates(p, c, want)
		}
		if x, ok := position(i); ok {
			s.in[x], self = true, x
		}
		taken := 0
		for _, x := range s.lists[(s.slot[c]-1)*want:][:want] {
			if x >= 0 && x != self && taken < want-1 {
				s.in[x], taken = true, taken+1
			}
		}
	}
	// Close under prev partnership: a member's partner is pulled in so
	// re-matching the member cannot strand it. One pass suffices — the
	// added partner's own partner is the member itself. Only a dirty
	// agent still paired can have its partner off the pool.
	for x, in := range s.in {
		if q := prev[agent(x)]; in && q != matching.Unmatched {
			if y, ok := position(q); ok {
				s.in[y] = true
			} else {
				s.out = append(s.out, q)
			}
		}
	}
	off := len(s.out)
	for x, in := range s.in {
		if in {
			s.out = append(s.out, agent(x))
		}
	}
	if off > 0 {
		slices.Sort(s.out)
	}
	return slices.Clone(s.out)
}

// candidates appends class c's list to s.lists: the first want eligible
// members by (c's penalty next to them, index), then -1s.
func (s *Scratch) candidates(p matching.Penalties, c, want int) {
	row, order, end := p.Matrix[c], p.Ranked(c), len(s.lists)+want
	for x := 0; x < len(order) && len(s.lists) < end; {
		// One tie: the classes from x that c ranks alike, their buckets'
		// heads merged by index.
		tie, y := len(s.lists), x
		for ; y < len(order) && (y == x || row[order[y]] == row[order[x]]); y++ {
			b := s.bucket[s.start[order[y]]:s.start[order[y]+1]]
			s.lists = append(s.lists, b[:min(len(b), end-tie)]...)
		}
		slices.Sort(s.lists[tie:])
		s.lists, x = s.lists[:min(len(s.lists), end)], y
	}
	for len(s.lists) < end {
		s.lists = append(s.lists, -1)
	}
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
