package rematch

import (
	"cmp"
	"slices"

	"cooper/internal/agent"
	"cooper/internal/matching"
)

// Recommendations is the market's strategic assessment. It reproduces the
// message-exchange protocol's Action and ExpectedGain for every agent
// exactly — penalties are job-level, so all agents of one class are
// interchangeable as partners — while listing at most cap blocking
// partners per agent (cap <= 0 means DefaultRecommendCap; a cap of the
// population size lists them all, in the protocol's order). jobIdx[i] is
// agent i's row in the job-level penalty matrix; the matrix is never
// expanded to agents, and the scan is O(n·classes), not O(n²), which is
// what keeps both batch clears and repair epochs cheap.
func Recommendations(jobIdx []int, matrix [][]float64, match matching.Matching, alpha float64, cap int) []agent.Recommendation {
	everyone := make([]int, len(jobIdx))
	for i := range everyone {
		everyone[i] = i
	}
	return RecommendationsWithin(everyone, jobIdx, matrix, match, alpha, cap)
}

// RecommendationsWithin is Recommendations among one pool of agents (a
// shard's members, ascending): only members assess, and only members are
// listed as partners, though a member's current partner may sit outside
// the pool. It returns one recommendation per member, in
// members order.
//
// An agent's blocking partners are scanned tier by tier — a tier is the
// partner classes it suffers one same penalty next to — in ascending
// penalty order; both cut-offs below are exact because the gain is
// monotone in the sort key, so an early break never skips a qualifying
// partner:
//
//   - tiers stop qualifying once cur(i) - pen(i, class) <= alpha, and
//     every later tier has a larger penalty;
//   - within a class, members are pre-sorted by current penalty
//     descending, and stop qualifying once cur(j) - pen(class, i) <= alpha.
//
// Within a tier all partners are penalty-equivalent, so the listed ones
// are ordered by agent index ascending across the tier's classes: the
// exchange protocol's (penalty, agent ID) order.
func RecommendationsWithin(members, jobIdx []int, matrix [][]float64, match matching.Matching, alpha float64, cap int) []agent.Recommendation {
	if cap <= 0 {
		cap = DefaultRecommendCap
	}
	classes := len(matrix)
	cur := make([]float64, len(members)) // by position in members, like byClass
	for a, i := range members {
		if p := match[i]; p != matching.Unmatched {
			cur[a] = matrix[jobIdx[i]][jobIdx[p]]
		}
	}
	// Per-class member positions, most dissatisfied first (index
	// tie-break): the within-class mutual-gain cut-off scans a prefix.
	sizes := make([]int, classes)
	for _, i := range members {
		sizes[jobIdx[i]]++
	}
	positions := make([]int, len(members)) // every class's backing array
	byClass := make([][]int, classes)
	for c, size := range sizes {
		byClass[c], positions = positions[:0:size], positions[size:]
	}
	for a, i := range members {
		byClass[jobIdx[i]] = append(byClass[jobIdx[i]], a)
	}
	for _, ms := range byClass {
		slices.SortFunc(ms, func(x, y int) int {
			if c := cmp.Compare(cur[y], cur[x]); c != 0 {
				return c
			}
			return cmp.Compare(x, y)
		})
	}
	// Per-class candidate order: partner classes by ascending penalty
	// (class index on ties, which fixes what a cap keeps of a tier).
	// Computed once per present class, shared by all its agents.
	candOrder := make([][]int, classes)
	order := func(ci int) []int {
		if candOrder[ci] != nil {
			return candOrder[ci]
		}
		o := make([]int, classes)
		for c := range o {
			o[c] = c
		}
		slices.SortFunc(o, func(x, y int) int {
			if c := cmp.Compare(matrix[ci][x], matrix[ci][y]); c != 0 {
				return c
			}
			return cmp.Compare(x, y)
		})
		candOrder[ci] = o
		return o
	}

	recs := make([]agent.Recommendation, len(members))
	for a, i := range members {
		ci := jobIdx[i]
		rec := agent.Recommendation{AgentID: i, Action: agent.Participate}
		row, o := matrix[ci], order(ci)
		var blocking []int
		for x := 0; x < len(o) && len(blocking) < cap; {
			pen := row[o[x]]
			if !(cur[a]-pen > alpha) {
				break
			}
			from := len(blocking)
			for ; x < len(o) && row[o[x]] == pen; x++ {
				c := o[x]
				for _, b := range byClass[c] {
					if !(cur[b]-matrix[c][ci] > alpha) || len(blocking) == cap {
						break
					}
					if j := members[b]; j != i && j != match[i] {
						blocking = append(blocking, j)
					}
				}
			}
			if len(blocking) == from {
				continue
			}
			if rec.Action == agent.Participate {
				rec.Action = agent.BreakAway
				rec.ExpectedGain = cur[a] - pen
			}
			slices.Sort(blocking[from:])
		}
		rec.BlockingPartners = blocking
		recs[a] = rec
	}
	return recs
}
