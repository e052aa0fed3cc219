package policy

import (
	"cmp"
	"fmt"
	"slices"

	"cooper/internal/matching"
	"cooper/internal/stats"
)

// Clustered implements the paper's §VIII clustering proposal: classify
// applications into types (k-means over each agent's penalty row, so
// agents that suffer similarly from the same co-runners share a type),
// match types with types — a type may match itself — and then pair
// agents across matched types. Clustering collapses the matching problem
// from n agents to K types, trading some stability for scalability.
type Clustered struct {
	// K is the number of types. Zero means 5 (one per broad application
	// class in the catalog: streaming, batch-analytic, cache-sensitive,
	// moderate, compute-bound).
	K int
}

// Name implements Policy.
func (Clustered) Name() string { return "CL" }

// Assign implements Policy. The k-means features are d's rows as given.
func (c Clustered) Assign(d [][]float64, ctx Context) (matching.Matching, error) {
	p := matching.Dense(d)
	if err := validate(p, ctx, false, true); err != nil {
		return nil, err
	}
	return c.assign(p, d, ctx)
}

// AssignClasses implements Policy. k-means wants one feature row per
// agent — its penalty next to every other agent, zero next to itself —
// which is the one place a policy gathers agent-level rows, privately and
// for the duration of the call.
func (c Clustered) AssignClasses(p matching.Penalties, ctx Context) (matching.Matching, error) {
	if err := validate(p, ctx, false, true); err != nil {
		return nil, err
	}
	n := p.Agents()
	rows, backing := make([][]float64, n), make([]float64, n*n)
	for i := range rows {
		rows[i] = backing[i*n : (i+1)*n]
		for j := range rows[i] {
			if i != j {
				rows[i][j] = p.At(i, j)
			}
		}
	}
	return c.assign(p, rows, ctx)
}

// assign clusters the agents by their feature rows and matches over p,
// which the caller has validated.
func (c Clustered) assign(p matching.Penalties, rows [][]float64, ctx Context) (matching.Matching, error) {
	n := p.Agents()
	match := newUnmatched(n)
	if n < 2 {
		return match, nil
	}
	k := c.K
	if k <= 0 {
		k = 5
	}
	if k > n {
		k = n
	}

	assign, _, err := stats.KMeans(rows, k, 50, ctx.Rand)
	if err != nil {
		return nil, err
	}
	members := make([][]int, k)
	for i, t := range assign {
		members[t] = append(members[t], i)
	}

	// Type-level penalty: how much type x's agents suffer, on average,
	// next to type y's agents.
	typeD := make([][]float64, k)
	for x := range typeD {
		typeD[x] = make([]float64, k)
		for y := range typeD[x] {
			var sum float64
			var count int
			for _, i := range members[x] {
				for _, j := range members[y] {
					if i != j {
						sum += p.At(i, j)
						count++
					}
				}
			}
			if count > 0 {
				typeD[x][y] = sum / float64(count)
			}
		}
	}

	// Match types greedily, largest type first; self-matches allowed.
	order := make([]int, 0, k)
	for x := 0; x < k; x++ {
		if len(members[x]) > 0 {
			order = append(order, x)
		}
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(len(members[b]), len(members[a])) })
	matchedType := make([]int, k)
	for x := range matchedType {
		matchedType[x] = -1
	}
	for _, x := range order {
		if matchedType[x] != -1 {
			continue
		}
		best, bestCost := x, typeD[x][x] // self-match is the default
		for _, y := range order {
			if y == x || matchedType[y] != -1 {
				continue
			}
			// Both sides' suffering counts.
			cost := (typeD[x][y] + typeD[y][x]) / 2
			if cost < bestCost {
				best, bestCost = y, cost
			}
		}
		matchedType[x] = best
		matchedType[best] = x
	}

	// Pair agents across matched types; leftovers pool up for greedy
	// completion.
	var leftovers []int
	for _, x := range order {
		y := matchedType[x]
		switch {
		case y == x:
			ms := members[x]
			for len(ms) >= 2 {
				a, b := ms[0], ms[1]
				match[a], match[b] = b, a
				ms = ms[2:]
			}
			leftovers = append(leftovers, ms...)
		case x < y: // process each matched type pair once
			xs, ys := members[x], members[y]
			for len(xs) > 0 && len(ys) > 0 {
				a, b := xs[0], ys[0]
				match[a], match[b] = b, a
				xs, ys = xs[1:], ys[1:]
			}
			leftovers = append(leftovers, xs...)
			leftovers = append(leftovers, ys...)
		}
	}
	matching.GreedyPair(leftovers, p, match)
	if err := match.Validate(); err != nil {
		return nil, fmt.Errorf("policy: clustered produced invalid matching: %w", err)
	}
	return match, nil
}
