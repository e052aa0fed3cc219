package matching

import (
	"cmp"
	"fmt"
	"slices"
)

// Penalties is the class view of a penalty matrix, the one representation
// the matching and assessment layers consume: agent i's penalty next to
// agent j is Matrix[Class[i]][Class[j]]. Cooper's penalties are job-level
// (§III: an agent's disutility depends only on its own and its co-runner's
// application), so Matrix is catalog-sized however many agents play, and
// everything that depends on an agent only through its class — a
// preference order, a rank row — is computed once per class.
//
// An agent is never its own co-runner: no consumer reads the penalty of i
// next to i, so Matrix's diagonal (two agents of one class) is ordinary
// data.
//
// Ranks, when non-nil, is Matrix's preference table (Rank), built once
// per matrix and shared by every view of it; Matrix must not change
// while it is in use. Every consumer reads classes' orders from it
// alone: one handed a view without a table ranks the whole matrix on
// entry (WithRanks).
type Penalties struct {
	Matrix [][]float64
	Class  []int
	Ranks  []int32
}

// Rank builds a square matrix's preference table, C rows of C classes
// flat: row a lists every class b best partner first for an agent of
// class a, by (matrix[a][b], b). It costs O(C² log C), once per matrix;
// the market ranks its matrix when it is built and every epoch reads the
// rows. The sort compares penalties alone; its runs of equal penalty are
// tiers, and counting b into its tier in ascending order breaks the ties
// in O(C) a row, where sorting each run, or a comparator that breaks
// ties, costs a log factor more — and a Dense view has as many classes
// as agents.
func Rank(matrix [][]float64) []int32 {
	c := len(matrix)
	ranks := make([]int32, c*c)
	scratch := make([]int, 2*c)
	for a, row := range matrix {
		rankRow(ranks[a*c:(a+1)*c], row, scratch)
	}
	return ranks
}

// rankRow writes row's classes into l, best partner first: one row of
// Rank's table. scratch holds 2·len(row) ints.
func rankRow(l []int32, row []float64, scratch []int) {
	tier, fill := scratch[:len(row)], scratch[len(row):]
	for b := range l {
		l[b] = int32(b)
	}
	slices.SortFunc(l, func(u, v int32) int { return cmp.Compare(row[u], row[v]) })
	t := -1
	for i, b := range l {
		if i == 0 || cmp.Compare(row[b], row[l[i-1]]) != 0 {
			t++
			fill[t] = i
		}
		tier[b] = t
	}
	for b := range l {
		l[fill[tier[b]]] = int32(b)
		fill[tier[b]]++
	}
}

// Rerank returns p with a copy of its preference table in which class
// c's row is ranked afresh from p.Matrix[c]: the table of a matrix that
// differs from the one p's table ranked in row c alone, in O(C²) for the
// copy and O(C log C) for the row, where ranking it whole costs
// O(C² log C). p must carry a table.
func (p Penalties) Rerank(c int) Penalties {
	k := len(p.Matrix)
	p.Ranks = slices.Clone(p.Ranks)
	rankRow(p.Ranks[c*k:(c+1)*k], p.Matrix[c], make([]int, 2*k))
	return p
}

// WithRanks returns p carrying its matrix's preference table: p itself
// when it has one, else p with Rank(p.Matrix). A consumer calls it on
// entry, so a view without a table is ranked once per call, whole.
func (p Penalties) WithRanks() Penalties {
	if p.Ranks == nil {
		p.Ranks = Rank(p.Matrix)
	}
	return p
}

// Ranked returns class c's row of p's preference table, which p must
// carry: every class, best partner first, by (penalty, class). The row
// is the table's; callers must not modify it.
func (p Penalties) Ranked(c int) []int32 {
	k := len(p.Matrix)
	return p.Ranks[c*k : (c+1)*k : (c+1)*k]
}

// Dense views an agent-level matrix (d[i][j] is agent i's penalty next to
// agent j) as a class view in which every agent is its own class.
func Dense(d [][]float64) Penalties {
	return Penalties{Matrix: d, Class: identity(len(d))}
}

// identity returns 0, 1, …, n-1.
func identity(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// Agents returns the population size.
func (p Penalties) Agents() int { return len(p.Class) }

// At returns agent i's penalty when colocated with agent j.
func (p Penalties) At(i, j int) float64 { return p.Matrix[p.Class[i]][p.Class[j]] }

// Validate checks that Matrix is square, a preference table has one row
// per class, and every agent's class is one of Matrix's rows.
func (p Penalties) Validate() error {
	if err := ValidatePenalties(p.Matrix); err != nil {
		return err
	}
	if c := len(p.Matrix); p.Ranks != nil && len(p.Ranks) != c*c {
		return fmt.Errorf("matching: %d-entry preference table for a %d-class penalty matrix", len(p.Ranks), c)
	}
	for i, c := range p.Class {
		if c < 0 || c >= len(p.Matrix) {
			return fmt.Errorf("matching: agent %d has class %d outside the %d-class penalty matrix",
				i, c, len(p.Matrix))
		}
	}
	return nil
}

// Lists returns best-first preference lists of agents over others (both
// hold agent indices): lists[a] orders the positions 0..len(others)-1 by
// the penalty agents[a] suffers next to others[b], ascending, ties broken
// by the agent index others[b]. Agents of one class rank alike, so they
// share one list — the same slice, which callers must not modify — and
// every list is carved from one allocation. The work is one O(n log n)
// integer sort of others by agent index, then per class its ranked
// classes present in others — its table row less the absent classes —
// and one O(n) pass, not one sort per agent. A view without a
// preference table is ranked first (WithRanks).
func (p Penalties) Lists(agents, others []int) [][]int {
	p = p.WithRanks()
	n := len(others)
	// others' positions in ascending agent index, packed as index<<32 |
	// position so the sort compares integers, then rewritten in place as
	// class<<32 | position: a list is these positions bucketed by the
	// viewer's penalty tiers, and a stable bucketing keeps equal-penalty
	// classes merged by agent index.
	keys := make([]uint64, n)
	for b, j := range others {
		keys[b] = uint64(j)<<32 | uint64(b)
	}
	slices.Sort(keys)
	classes := len(p.Matrix)
	perClass := make([]int, 3*classes)
	// members[c] counts class c among others; slot[c] is 1 + the index of
	// class c's list in the backing array, 0 if no agent is of class c;
	// tier[c] is class c's tier under the list being built.
	members, slot, tier := perClass[:classes], perClass[classes:2*classes], perClass[2*classes:]
	for k, key := range keys {
		b := uint64(uint32(key))
		c := p.Class[others[b]]
		keys[k] = uint64(c)<<32 | b
		members[c]++
	}
	present := 0 // classes with members among others
	for _, m := range members {
		if m > 0 {
			present++
		}
	}
	distinct := 0
	for _, i := range agents {
		if c := p.Class[i]; slot[c] == 0 {
			distinct++
			slot[c] = distinct
		}
	}
	backing := make([]int, distinct*n)
	list := func(s int) []int { return backing[(s-1)*n : s*n : s*n] }

	// next[t] is where tier t's bucket fills from; order is the viewer's
	// present classes, best first.
	ints := make([]int, 2*present)
	next, order := ints[:present], ints[present:present]
	for c, s := range slot {
		if s == 0 {
			continue
		}
		row := p.Matrix[c]
		order = order[:0]
		for _, d := range p.Ranked(c) {
			if members[d] > 0 {
				order = append(order, int(d))
			}
		}
		clear(next)
		t := 0
		for x, d := range order {
			if x > 0 && row[d] != row[order[x-1]] {
				t++
			}
			tier[d] = t
			next[t] += members[d]
		}
		for t, at := 0, 0; t < len(next); t++ {
			next[t], at = at, at+next[t]
		}
		l := list(s)
		for _, key := range keys {
			t := tier[key>>32]
			l[next[t]] = int(uint32(key))
			next[t]++
		}
	}

	lists := make([][]int, len(agents))
	for a, i := range agents {
		lists[a] = list(slot[p.Class[i]])
	}
	return lists
}
