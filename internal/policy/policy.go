// Package policy implements Cooper's colocation policies: the two
// conventional baselines (Greedy and Complementary), the three
// game-theoretic stable policies (Stable Marriage Partition, Stable
// Marriage Random, Stable Roommate), and the threshold scheme discussed
// in the paper's related-work comparison.
//
// A policy consumes penalties in their class view (matching.Penalties: a
// job-level matrix, predicted by the preference predictor or supplied by
// an oracle, plus each agent's row in it) and per-agent contentiousness,
// and emits a matching: which agents share each CMP. An agent-level
// matrix is the special case in which every agent is its own class.
package policy

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"

	"cooper/internal/matching"
	"cooper/internal/telemetry"
)

// Context carries the per-agent information policies may use alongside the
// penalty matrix.
type Context struct {
	// BandwidthGBps is each agent's standalone memory bandwidth demand —
	// the paper's contentiousness measure, used by partitioning policies.
	BandwidthGBps []float64
	// Rand drives randomized policies (SMR). Policies must not use any
	// other randomness source, keeping experiments reproducible.
	Rand *rand.Rand
	// Metrics, when non-nil, receives the matching work counters
	// (match.proposals, match.rotations, match.sr_retries,
	// match.greedy_fallback). Nil disables recording.
	Metrics *telemetry.Registry
	// Scratch, when non-nil, is the working memory SMR, SMP and CO reuse
	// from clear to clear; nil allocates it afresh. The matching returned
	// is never in it.
	Scratch *Scratch
}

// Scratch is a clear's working memory, reused by one caller from clear
// to clear; the zero value is ready. Not safe for concurrent use.
type Scratch struct {
	perm     []int // SMR's random order
	order    []int // SMP's and CO's bandwidth order
	marriage matching.MarriageScratch
}

// scratch is ctx.Scratch, or a fresh one.
func (ctx Context) scratch() *Scratch {
	if ctx.Scratch == nil {
		return new(Scratch)
	}
	return ctx.Scratch
}

// Policy assigns co-runners to agents.
type Policy interface {
	// Name returns the paper's abbreviation for the policy (GR, CO, ...).
	Name() string
	// AssignClasses returns a matching over the agents of p. It is what the
	// market engine calls: the work a policy does per class rather than per
	// agent is what keeps a clear from growing with agents².
	AssignClasses(p matching.Penalties, ctx Context) (matching.Matching, error)
	// Assign is AssignClasses over an agent-level matrix: d[i][j] is agent
	// i's penalty when colocated with agent j, and every agent is its own
	// class (matching.Dense).
	Assign(d [][]float64, ctx Context) (matching.Matching, error)
}

func validate(p matching.Penalties, ctx Context, needBW, needRand bool) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if needBW && len(ctx.BandwidthGBps) != p.Agents() {
		return fmt.Errorf("policy: %d bandwidth entries for %d agents",
			len(ctx.BandwidthGBps), p.Agents())
	}
	if needRand && ctx.Rand == nil {
		return fmt.Errorf("policy: randomized policy needs ctx.Rand")
	}
	return nil
}

// Greedy is the paper's GR baseline: each task is assigned, sequentially,
// to the processor that minimizes contention given prior assignments.
// With N processors for 2N tasks, early tasks claim empty processors
// (zero contention) and later tasks join whichever occupied processor
// minimizes the pair's added penalty.
type Greedy struct {
	// Machines is the number of processors. Zero means len(agents)/2,
	// the paper's fully loaded system.
	Machines int
}

// Name implements Policy.
func (Greedy) Name() string { return "GR" }

// Assign implements Policy.
func (g Greedy) Assign(d [][]float64, ctx Context) (matching.Matching, error) {
	return g.AssignClasses(matching.Dense(d), ctx)
}

// AssignClasses implements Policy.
func (g Greedy) AssignClasses(p matching.Penalties, ctx Context) (matching.Matching, error) {
	if err := validate(p, ctx, false, false); err != nil {
		return nil, err
	}
	n := p.Agents()
	machines := g.Machines
	if machines <= 0 {
		machines = (n + 1) / 2
	}
	match := newUnmatched(n)
	// occupants[m] = agents on machine m.
	occupants := make([][]int, machines)
	for i := 0; i < n; i++ {
		bestMachine := -1
		bestCost := 0.0
		for m := range occupants {
			switch len(occupants[m]) {
			case 0:
				// Empty processor: no contention. Strictly better than
				// any pairing with positive penalty; ties (zero-penalty
				// pairings) also prefer the empty machine, as the real
				// greedy dispatcher fills idle capacity first.
				if bestMachine == -1 || bestCost > 0 {
					bestMachine = m
					bestCost = 0
				}
			case 1:
				j := occupants[m][0]
				cost := p.At(i, j) + p.At(j, i)
				if bestMachine == -1 || cost < bestCost {
					bestMachine = m
					bestCost = cost
				}
			}
		}
		if bestMachine == -1 {
			return nil, fmt.Errorf("policy: greedy ran out of capacity for agent %d (%d machines)",
				i, machines)
		}
		occupants[bestMachine] = append(occupants[bestMachine], i)
	}
	for _, occ := range occupants {
		if len(occ) == 2 {
			match[occ[0]], match[occ[1]] = occ[1], occ[0]
		}
	}
	return match, nil
}

// Complementary is the paper's CO baseline: partition tasks by resource
// demand and pair tasks with complementary demands — the most memory-
// intensive task with the least, and so on inward.
type Complementary struct{}

// Name implements Policy.
func (Complementary) Name() string { return "CO" }

// Assign implements Policy.
func (c Complementary) Assign(d [][]float64, ctx Context) (matching.Matching, error) {
	return c.AssignClasses(matching.Dense(d), ctx)
}

// AssignClasses implements Policy.
func (Complementary) AssignClasses(p matching.Penalties, ctx Context) (matching.Matching, error) {
	if err := validate(p, ctx, true, false); err != nil {
		return nil, err
	}
	n := p.Agents()
	order := sortedByBandwidth(ctx.BandwidthGBps, p.Class, len(p.Matrix), ctx.scratch())
	match := newUnmatched(n)
	lo, hi := 0, n-1
	for lo < hi {
		a, b := order[hi], order[lo] // most intensive with least intensive
		match[a], match[b] = b, a
		lo++
		hi--
	}
	return match, nil
}

// StableMarriagePartition is the paper's SMP policy: partition tasks into
// memory- and compute-intensive halves by bandwidth demand and find a
// stable marriage between the halves. The resource-intensive set proposes.
type StableMarriagePartition struct{}

// Name implements Policy.
func (StableMarriagePartition) Name() string { return "SMP" }

// Assign implements Policy.
func (s StableMarriagePartition) Assign(d [][]float64, ctx Context) (matching.Matching, error) {
	return s.AssignClasses(matching.Dense(d), ctx)
}

// AssignClasses implements Policy.
func (StableMarriagePartition) AssignClasses(p matching.Penalties, ctx Context) (matching.Matching, error) {
	if err := validate(p, ctx, true, false); err != nil {
		return nil, err
	}
	s := ctx.scratch()
	order := sortedByBandwidth(ctx.BandwidthGBps, p.Class, len(p.Matrix), s)
	half := len(order) / 2
	computeSet := order[:half]           // least intensive half
	memorySet := order[len(order)-half:] // most intensive half proposes
	return marriageBetween(p, memorySet, computeSet, ctx.Metrics, s)
}

// StableMarriageRandom is the paper's SMR policy: partition tasks into two
// halves uniformly at random and find a stable marriage between them. The
// first (randomly selected) half proposes. SMR is the paper's recommended
// policy: it delivers fair attribution, satisfied preferences and the
// fewest blocking pairs, and needs no extra profiling.
type StableMarriageRandom struct{}

// Name implements Policy.
func (StableMarriageRandom) Name() string { return "SMR" }

// Assign implements Policy.
func (s StableMarriageRandom) Assign(d [][]float64, ctx Context) (matching.Matching, error) {
	return s.AssignClasses(matching.Dense(d), ctx)
}

// AssignClasses implements Policy.
func (StableMarriageRandom) AssignClasses(p matching.Penalties, ctx Context) (matching.Matching, error) {
	if err := validate(p, ctx, false, true); err != nil {
		return nil, err
	}
	n, s := p.Agents(), ctx.scratch()
	order := s.randPerm(ctx.Rand, n)
	half := n / 2
	proposers := order[:half]
	receivers := order[half : 2*half]
	return marriageBetween(p, proposers, receivers, ctx.Metrics, s)
}

// StableRoommate is the paper's SR policy: Irving's stable roommates over
// the full population, with greedy completion when no perfectly stable
// assignment exists.
type StableRoommate struct{}

// Name implements Policy.
func (StableRoommate) Name() string { return "SR" }

// Assign implements Policy.
func (s StableRoommate) Assign(d [][]float64, ctx Context) (matching.Matching, error) {
	return s.AssignClasses(matching.Dense(d), ctx)
}

// AssignClasses implements Policy.
func (StableRoommate) AssignClasses(p matching.Penalties, ctx Context) (matching.Matching, error) {
	if err := validate(p, ctx, false, false); err != nil {
		return nil, err
	}
	match, stats, err := matching.AdaptedRoommatesClasses(p)
	if ctx.Metrics != nil {
		ctx.Metrics.Counter("match.proposals").Add(int64(stats.Proposals))
		ctx.Metrics.Counter("match.rotations").Add(int64(stats.Rotations))
		ctx.Metrics.Counter("match.sr_retries").Add(int64(stats.Retries))
		ctx.Metrics.Counter("match.greedy_fallback").Add(int64(stats.GreedyFallback))
	}
	return match, err
}

// Threshold is the related-work baseline (Bubble-Up style): colocate a
// pair only when both penalties stay under Tolerance; any task that cannot
// colocate within tolerance gets a machine of its own. Unlike the other
// policies it may leave many tasks unpaired, consuming extra machines.
type Threshold struct {
	// Tolerance is the maximum acceptable penalty (e.g. 0.10).
	Tolerance float64
}

// Name implements Policy.
func (Threshold) Name() string { return "TH" }

// Assign implements Policy.
func (th Threshold) Assign(d [][]float64, ctx Context) (matching.Matching, error) {
	return th.AssignClasses(matching.Dense(d), ctx)
}

// AssignClasses implements Policy.
func (th Threshold) AssignClasses(p matching.Penalties, ctx Context) (matching.Matching, error) {
	if err := validate(p, ctx, false, false); err != nil {
		return nil, err
	}
	n := p.Agents()
	match := newUnmatched(n)
	for i := 0; i < n; i++ {
		if match[i] != matching.Unmatched {
			continue
		}
		best, bestCost := -1, 0.0
		for j := i + 1; j < n; j++ {
			if match[j] != matching.Unmatched {
				continue
			}
			pij, pji := p.At(i, j), p.At(j, i)
			if pij > th.Tolerance || pji > th.Tolerance {
				continue
			}
			cost := pij + pji
			if best == -1 || cost < bestCost {
				best, bestCost = j, cost
			}
		}
		if best != -1 {
			match[i], match[best] = best, i
		}
	}
	return match, nil
}

// All returns the paper's five evaluated policies in presentation order.
func All() []Policy {
	return []Policy{
		Greedy{},
		Complementary{},
		StableMarriagePartition{},
		StableMarriageRandom{},
		StableRoommate{},
	}
}

// ByName returns the policy with the given paper abbreviation.
func ByName(name string) (Policy, error) {
	for _, p := range All() {
		if p.Name() == name {
			return p, nil
		}
	}
	if name == "TH" {
		return Threshold{Tolerance: 0.10}, nil
	}
	return nil, fmt.Errorf("policy: unknown policy %q", name)
}

// randPerm is r.Perm(n) in s's buffer: the loop of math/rand's Perm, with
// its draws, so the stream r is left in is Perm's too. The buffer needs
// no clearing: a stale m[i] is read only when j == i, and m[j] = i
// overwrites it at once.
func (s *Scratch) randPerm(r *rand.Rand, n int) []int {
	if cap(s.perm) < n {
		s.perm = make([]int, n)
	}
	m := s.perm[:n]
	for i := range m {
		j := r.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	return m
}

func newUnmatched(n int) matching.Matching {
	m := make(matching.Matching, n)
	for i := range m {
		m[i] = matching.Unmatched
	}
	return m
}

// sortedByBandwidth returns agent indices ordered by increasing bandwidth
// demand under cmp.Compare (NaN first, -0 equal to +0), ties broken by
// index; agent i is of class class[i] < classes. Bandwidth is a job's, so
// an agent nearly always repeats the value its class last set: a memo per
// class places those agents in O(1), and only the misses (one per class
// on a catalog population, every agent on a Dense view) are sorted, equal
// values sharing a rank. A counting sort then deals the agents in index
// order, replaying the memo. O(n + M log M) for M misses. The order is
// s's buffer.
func sortedByBandwidth(bw []float64, class []int, classes int, s *Scratch) []int {
	memo := make([]int32, classes) // 1 + the miss that set class c's last value; 0 for none
	misses := make([]int32, 0, classes)
	bucket := make([]int32, 0, classes) // miss m's agents, then its value's rank
	for i, c := range class {
		m := memo[c] - 1
		if m < 0 || cmp.Compare(bw[misses[m]], bw[i]) != 0 {
			m, memo[c] = int32(len(misses)), int32(len(misses))+1
			misses, bucket = append(misses, int32(i)), append(bucket, 0)
		}
		bucket[m]++
	}
	byValue := make([]int32, len(misses))
	for m := range byValue {
		byValue[m] = int32(m)
	}
	slices.SortFunc(byValue, func(a, b int32) int { return cmp.Compare(bw[misses[a]], bw[misses[b]]) })
	start := make([]int32, 0, len(misses)) // start[r]: rank r's first slot in the order
	var end int32
	for k, m := range byValue {
		if k == 0 || cmp.Compare(bw[misses[m]], bw[misses[byValue[k-1]]]) != 0 {
			start = append(start, end)
		}
		end += bucket[m]
		bucket[m] = int32(len(start) - 1)
	}
	if cap(s.order) < len(class) {
		s.order = make([]int, len(class))
	}
	order, next := s.order[:len(class)], 0 // every slot is written once
	for i, c := range class {
		if next < len(misses) && int(misses[next]) == i {
			next++
			memo[c] = int32(next)
		}
		r := bucket[memo[c]-1]
		order[start[r]] = i
		start[r]++
	}
	return order
}

// marriageBetween runs stable marriage between two equally sized agent
// sets and returns the global matching: deferred acceptance over class
// counts (matching.StableMarriageClasses), in which each side ranks the
// other by penalty ascending, then partner class, then agent index. A
// leftover agent (odd population) stays solo. The class-level steps land
// in metrics as match.proposals when non-nil. The marriage runs in s.
func marriageBetween(p matching.Penalties, proposers, receivers []int, metrics *telemetry.Registry, s *Scratch) (matching.Matching, error) {
	proposerMatch, steps, err := matching.StableMarriageClasses(p, proposers, receivers, &s.marriage)
	if err != nil {
		return nil, err
	}
	match := newUnmatched(p.Agents())
	if len(proposers) == 0 {
		return match, nil
	}
	metrics.Counter("match.proposals").Add(int64(steps))
	for a, b := range proposerMatch {
		i, j := proposers[a], receivers[b]
		match[i], match[j] = j, i
	}
	return match, nil
}
