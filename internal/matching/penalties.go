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
// the work is O(classes·len(others)), not one sort per agent.
func (p Penalties) Lists(agents, others []int) [][]int {
	// Positions of others grouped by class, ascending agent index within
	// each class: a list is whole groups laid end to end, since a class's
	// members differ only in the tie-break.
	grouped := identity(len(others))
	slices.SortFunc(grouped, func(x, y int) int {
		if c := cmp.Compare(p.Class[others[x]], p.Class[others[y]]); c != 0 {
			return c
		}
		return cmp.Compare(others[x], others[y])
	})
	var classes, start []int // group g is grouped[start[g]:start[g+1]], of class classes[g]
	for at, b := range grouped {
		if c := p.Class[others[b]]; at == 0 || c != classes[len(classes)-1] {
			classes = append(classes, c)
			start = append(start, at)
		}
	}
	start = append(start, len(grouped))

	order := make([]int, len(classes))
	shared := make(map[int][]int)
	lists := make([][]int, len(agents))
	for a, i := range agents {
		c := p.Class[i]
		list, ok := shared[c]
		if !ok {
			row := p.Matrix[c]
			for g := range order {
				order[g] = g
			}
			slices.SortFunc(order, func(x, y int) int { return cmp.Compare(row[classes[x]], row[classes[y]]) })
			list = make([]int, 0, len(others))
			for x, y := 0, 0; x < len(order); x = y {
				for y = x + 1; y < len(order) && row[classes[order[y]]] == row[classes[order[x]]]; y++ {
				}
				from := len(list)
				for _, g := range order[x:y] {
					list = append(list, grouped[start[g]:start[g+1]]...)
				}
				if y-x > 1 {
					// Classes of equal penalty interleave by agent index.
					slices.SortFunc(list[from:], func(u, v int) int { return cmp.Compare(others[u], others[v]) })
				}
			}
			shared[c] = list
		}
		lists[a] = list
	}
	return lists
}
