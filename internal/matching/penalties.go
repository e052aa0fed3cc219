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
type Penalties struct {
	Matrix [][]float64
	Class  []int
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

// Validate checks that Matrix is square and every agent's class is one of
// its rows.
func (p Penalties) Validate() error {
	if err := ValidatePenalties(p.Matrix); err != nil {
		return err
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
// integer sort of others by agent index, then per class a sort of the
// classes present in others and one O(n) pass, not one sort per agent.
func (p Penalties) Lists(agents, others []int) [][]int {
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
	present := make([]int, 0, classes) // classes with members among others
	for c, m := range members {
		if m > 0 {
			present = append(present, c)
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

	next := make([]int, len(present)) // tier t's bucket fills from next[t]
	for c, s := range slot {
		if s == 0 {
			continue
		}
		row := p.Matrix[c]
		// Within a tier the class order is immaterial: the bucketing
		// below merges a tier's classes by agent index.
		slices.SortFunc(present, func(x, y int) int { return cmp.Compare(row[x], row[y]) })
		clear(next)
		t := 0
		for x, d := range present {
			if x > 0 && row[d] != row[present[x-1]] {
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
