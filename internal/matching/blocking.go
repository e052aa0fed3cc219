package matching

import (
	"errors"
	"fmt"
	"slices"
)

// PrefsFromPenalties converts a cardinal disutility matrix into ordinal
// roommate preference lists: d[i][j] is agent i's penalty when colocated
// with agent j, and i prefers co-runners with lower penalty. Ties break by
// index for determinism.
func PrefsFromPenalties(d [][]float64) [][]int {
	// Every agent is its own class (p.Class is 0..n-1, everyone), so no
	// two lists share storage and each can drop its owner in place.
	p := Dense(d)
	prefs := p.Lists(p.Class, p.Class)
	for i, list := range prefs {
		prefs[i] = slices.DeleteFunc(list, func(j int) bool { return j == i })
	}
	return prefs
}

// ValidatePenalties checks that d is a square matrix.
func ValidatePenalties(d [][]float64) error {
	for i, row := range d {
		if len(row) != len(d) {
			return fmt.Errorf("matching: penalty row %d has %d entries, want %d",
				i, len(row), len(d))
		}
	}
	return nil
}

// BlockingPairs returns the pairs that would break away under the
// paper's Figure 10 criterion, in (i<j) order: (i, j) blocks when
// colocating with each other strictly improves both agents' performance by
// more than alpha over their assigned colocations. Improvement must be
// strict so that the plentiful exact ties between agents running identical
// applications do not register as instability at alpha = 0. Agents left
// unmatched run alone with zero penalty; pairing can only add penalty, so
// solo agents never block.
func (p Penalties) BlockingPairs(match Matching, alpha float64) [][2]int {
	var blocking [][2]int
	p.eachBlockingPair(match, alpha, func(i, j int) { blocking = append(blocking, [2]int{i, j}) })
	return blocking
}

// CountBlockingPairs is len(p.BlockingPairs(match, alpha)) without
// building the list, which at alpha = 0 can be most of the same-class
// pairs.
func (p Penalties) CountBlockingPairs(match Matching, alpha float64) int {
	count := 0
	p.eachBlockingPair(match, alpha, func(int, int) { count++ })
	return count
}

// eachBlockingPair calls yield for every blocking pair, i ascending, then
// j ascending. It keeps one penalty per agent and nothing per pair.
func (p Penalties) eachBlockingPair(match Matching, alpha float64, yield func(i, j int)) {
	current := make([]float64, len(match))
	for i, partner := range match {
		if partner != Unmatched {
			current[i] = p.At(i, partner)
		}
	}
	for i := range match {
		row := p.Matrix[p.Class[i]]
		for j := i + 1; j < len(match); j++ {
			if match[i] == j {
				continue
			}
			if current[i]-row[p.Class[j]] > alpha && current[j]-p.Matrix[p.Class[j]][p.Class[i]] > alpha {
				yield(i, j)
			}
		}
	}
}

// GreedyPair pairs the given agents to minimize individual disutilities,
// sequentially: each unmatched agent (in the given order) takes the
// remaining partner that minimizes its own penalty. With an odd count the
// last agent stays Unmatched. The result is written into match, which must
// already mark the agents Unmatched.
func GreedyPair(agents []int, p Penalties, match Matching) {
	remaining := append([]int(nil), agents...)
	for len(remaining) > 1 {
		i := remaining[0]
		best := 1
		for k := 2; k < len(remaining); k++ {
			if p.At(i, remaining[k]) < p.At(i, remaining[best]) {
				best = k
			}
		}
		j := remaining[best]
		match[i], match[j] = j, i
		remaining = append(remaining[:best], remaining[best+1:]...)
		remaining = remaining[1:]
	}
}

// AdaptedRoommates implements the paper's Stable Roommate (SR) policy over
// an agent-level matrix: AdaptedRoommatesClasses with every agent its own
// class. It reports the matching and how many agents needed the greedy
// fallback.
func AdaptedRoommates(d [][]float64) (Matching, int, error) {
	match, stats, err := AdaptedRoommatesClasses(Dense(d))
	return match, stats.GreedyFallback, err
}

// AdaptedStats aggregates Irving work counters across the SR policy's
// retry loop, for the telemetry layer.
type AdaptedStats struct {
	// Proposals and Rotations sum RoommateStats over every attempt,
	// including failed ones.
	Proposals int
	Rotations int
	// Retries is how many witness-removal rounds ran before a stable
	// sub-instance was found.
	Retries int
	// GreedyFallback is how many agents the greedy completion paired.
	GreedyFallback int
}

// AdaptedRoommatesClasses implements the paper's Stable Roommate (SR)
// policy: run Irving's algorithm on the cardinal preferences derived from
// p; when no perfectly stable solution exists, remove the witness agent
// (the one rejected by all others) and retry, then greedily pair the
// removed agents to minimize their individual disutilities. Agents of one
// class share their preference order, so an attempt costs
// O(classes·agents) to set up, plus Irving's own work; a view without a
// preference table is ranked once, for every attempt.
func AdaptedRoommatesClasses(p Penalties) (Matching, AdaptedStats, error) {
	var stats AdaptedStats
	if err := p.Validate(); err != nil {
		return nil, stats, err
	}
	p = p.WithRanks()
	n := p.Agents()
	match := make(Matching, n)
	for i := range match {
		match[i] = Unmatched
	}
	if n < 2 {
		return match, stats, nil
	}

	// ids maps positions in the shrinking sub-instance to original agents.
	// It stays ascending, so ties break by position exactly as by agent.
	ids := identity(n)
	var leftovers []int

	for len(ids) >= 2 {
		m, rs, err := stableRoommates(p.Lists(ids, ids))
		stats.Proposals += rs.Proposals
		stats.Rotations += rs.Rotations
		if err == nil {
			for a, b := range m {
				if b != Unmatched {
					match[ids[a]] = ids[b]
				}
			}
			ids = nil
			break
		}
		var nse *NoStableError
		if !errors.As(err, &nse) {
			return nil, stats, err
		}
		// Remove the witness and retry on the rest.
		stats.Retries++
		w := nse.Agent
		leftovers = append(leftovers, ids[w])
		ids = append(ids[:w], ids[w+1:]...)
	}
	leftovers = append(leftovers, ids...)

	GreedyPair(leftovers, p, match)
	stats.GreedyFallback = len(leftovers)
	return match, stats, nil
}
