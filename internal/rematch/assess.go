package rematch

import (
	"cmp"
	"slices"

	"cooper/internal/agent"
	"cooper/internal/matching"
)

// Assessment is the market's strategic assessment of a matching (§IV-B):
// one verdict per (class, partner class or solo) cell, shared by the
// cell's agents, since penalties depend only on the two classes. It
// views the class assignment and the matching it assessed, which its
// Recommendation and Recommendations read, so they must stay as they
// were.
type Assessment struct {
	// BlockingPairs is the exact number of blocking pairs:
	// Penalties.CountBlockingPairs over the whole population.
	BlockingPairs int
	// BreakAways is how many agents are told to break away: the agents
	// of every cell whose verdict is BreakAway.
	BreakAways int

	class    []int
	match    matching.Matching
	cols     int       // a row of cells: the partner classes, then running alone
	verdicts []verdict // by cell, class·cols + partner class
}

// verdict is one cell's Action and ExpectedGain.
type verdict struct {
	breaks bool
	gain   float64
}

// cell is agent i's (class, partner class) cell.
func (a Assessment) cell(i int) int {
	if j := a.match[i]; j != matching.Unmatched {
		return a.class[i]*a.cols + a.class[j]
	}
	return a.class[i]*a.cols + a.cols - 1
}

// Recommendation is agent i's Action and ExpectedGain, with
// BlockingPartners left nil.
func (a Assessment) Recommendation(i int) agent.Recommendation {
	rec := agent.Recommendation{AgentID: i, Action: agent.Participate}
	if v := a.verdicts[a.cell(i)]; v.breaks {
		rec.Action, rec.ExpectedGain = agent.BreakAway, v.gain
	}
	return rec
}

// Recommendations materialises every agent's Recommendation into a fresh
// slice, in index order.
func (a Assessment) Recommendations() []agent.Recommendation {
	recs := make([]agent.Recommendation, len(a.match))
	for i := range recs {
		recs[i] = a.Recommendation(i)
	}
	return recs
}

// Assess is the market's strategic assessment of a matching: every
// agent's message-exchange Action and ExpectedGain (§IV-B), as a table
// over (class, partner class) cells, and the exact number of blocking
// pairs — Penalties.CountBlockingPairs over the whole population.
// Penalties depend only on (class, partner class), so both are functions
// of class counts:
//
//   - cnt[a][p] counts the agents of class a whose partner is of class p
//     (or who run alone), and want[a][b] those of them that gain more
//     than alpha next to a class-b agent: cur(a, p) − M[a][b] > alpha.
//     The gain falls along a's ranked row (Penalties.Ranked), so each
//     occupied cell walks the row until the first class it does not gain
//     next to (penalties are numbers: a NaN has no place in that order).
//   - The pairs are Σ_{a<b} want[a][b]·want[b][a] + Σ_a C(want[a][a], 2),
//     less the matched pairs those products count (a pair does not block
//     its own matching; every matched pair counts when alpha < 0).
//   - An agent's partner classes are walked tier by tier — the classes it
//     suffers one same penalty next to — along its ranked row, while the
//     gain stays above alpha. The first tier holding an agent that wants
//     the agent's class back, itself and its own partner aside, gives
//     BreakAway at gain cur − pen.
//
// The pass is O(n + C·k) for the k ≤ min(n, C²+C) occupied (class,
// partner class) cells of C classes, whatever the number of pairs, and
// allocates O(C²), nothing per agent: the verdicts the Assessment keeps,
// and the count tables unless s holds them from an earlier call (nil s
// allocates them). A view without a preference table is ranked first
// (Penalties.WithRanks, O(C² log C)). The float expressions are those of
// CountBlockingPairs and Recommendations, so Action, ExpectedGain and
// the count are bit-identical to theirs.
func Assess(p matching.Penalties, match matching.Matching, alpha float64, s *Scratch) Assessment {
	if s == nil {
		s = new(Scratch)
	}
	p = p.WithRanks()
	jobIdx, matrix := p.Class, p.Matrix
	classes := len(matrix)
	solo, cols := classes, classes+1 // a cell's last column: running alone
	as := Assessment{class: jobIdx, match: match, cols: cols, verdicts: make([]verdict, classes*cols)}
	s.cnt, s.want = grow(s.cnt, classes*cols), grow(s.want, classes*classes)
	cnt, want := s.cnt, s.want
	for i := range match {
		cnt[as.cell(i)]++
	}
	cur := func(a, q int) float64 {
		if q == solo {
			return 0
		}
		return matrix[a][q]
	}
	// gains: an agent of class a partnered with class q gains more than
	// alpha next to a class-b agent.
	gains := func(a, q, b int) bool { return cur(a, q)-matrix[a][b] > alpha }
	for c, k := range cnt {
		a, q := c/cols, c%cols
		for _, b := range p.Ranked(a) {
			if k == 0 || !gains(a, q, int(b)) {
				break
			}
			want[a*classes+int(b)] += k
		}
	}

	for a := range classes {
		as.BlockingPairs += want[a*classes+a] * (want[a*classes+a] - 1) / 2
		for b := a + 1; b < classes; b++ {
			as.BlockingPairs += want[a*classes+b] * want[b*classes+a]
		}
	}
	for i, j := range match {
		if j != matching.Unmatched && i < j {
			if a, b := jobIdx[i], jobIdx[j]; gains(a, b, b) && gains(b, a, a) {
				as.BlockingPairs--
			}
		}
	}

	// One verdict per occupied (class, partner class) cell, shared by the
	// cell's agents.
	for a, row := range matrix {
		o := p.Ranked(a)
		for q := range cols {
			if cnt[a*cols+q] == 0 {
				continue
			}
			c := cur(a, q)
			for x := 0; x < classes; {
				pen := row[o[x]]
				if !(c-pen > alpha) {
					break
				}
				avail := 0
				for ; x < classes && row[o[x]] == pen; x++ {
					b := int(o[x])
					avail += want[b*classes+a]
					if b == a {
						avail-- // the agent itself
					}
					if b == q && gains(b, a, a) {
						avail-- // its own partner
					}
				}
				if avail > 0 {
					as.verdicts[a*cols+q] = verdict{breaks: true, gain: c - pen}
					as.BreakAways += cnt[a*cols+q]
					break
				}
			}
		}
	}
	return as
}

// Recommendations is Assess with the blocking partners listed: the
// message-exchange protocol's Action and ExpectedGain for every agent,
// exactly — penalties are job-level, so all agents of one class are
// interchangeable as partners — and at most cap blocking partners per
// agent (cap <= 0 means DefaultRecommendCap; a cap of the population size
// lists them all, in the protocol's order). jobIdx[i] is agent i's row in
// the job-level penalty matrix, which is never expanded to agents. The
// scan costs O(n·classes) plus the partners it visits — O(n²) with an
// uncapped list when most pairs block — after ranking the matrix
// (matching.Rank, O(classes² log classes)). The market engine runs
// Assess; this listing serves tests and the benchmark's replays.
func Recommendations(jobIdx []int, matrix [][]float64, match matching.Matching, alpha float64, cap int) []agent.Recommendation {
	everyone := make([]int, len(jobIdx))
	for i := range everyone {
		everyone[i] = i
	}
	return RecommendationsWithin(everyone, matching.Penalties{Matrix: matrix, Class: jobIdx}, match, alpha, cap)
}

// RecommendationsWithin is Recommendations among one pool of agents (a
// shard's members, ascending) of the class view p: only members assess,
// and only members are listed as partners, though a member's current
// partner may sit outside the pool. It returns one recommendation per
// member, in members order.
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
func RecommendationsWithin(members []int, p matching.Penalties, match matching.Matching, alpha float64, cap int) []agent.Recommendation {
	if cap <= 0 {
		cap = DefaultRecommendCap
	}
	p = p.WithRanks()
	jobIdx, matrix := p.Class, p.Matrix
	classes := len(matrix)
	cur := make([]float64, len(members)) // by position in members, like byClass
	for a, i := range members {
		if q := match[i]; q != matching.Unmatched {
			cur[a] = matrix[jobIdx[i]][jobIdx[q]]
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
	// Candidates come in the order of the agent's ranked row: the class
	// index on ties fixes what a cap keeps of a tier.
	recs := make([]agent.Recommendation, len(members))
	for a, i := range members {
		ci := jobIdx[i]
		rec := agent.Recommendation{AgentID: i, Action: agent.Participate}
		row, o := matrix[ci], p.Ranked(ci)
		var blocking []int
		for x := 0; x < len(o) && len(blocking) < cap; {
			pen := row[o[x]]
			if !(cur[a]-pen > alpha) {
				break
			}
			from := len(blocking)
			for ; x < len(o) && row[o[x]] == pen; x++ {
				c := int(o[x])
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
