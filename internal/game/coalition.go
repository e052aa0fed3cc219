package game

import (
	"fmt"

	"cooper/internal/matching"
)

// BlockingCoalition is a set of agents who can all strictly improve by
// abandoning their assigned co-runners and re-matching among themselves,
// together with the internal matching that achieves it.
type BlockingCoalition struct {
	Agents  []int
	Rematch matching.Matching // indexed over Agents' positions
	// MinGain is the smallest improvement any member realizes.
	MinGain float64
}

// CoalitionModel fixes what hardware a break-away coalition commands.
type CoalitionModel int

const (
	// SharedHardware is the paper's resource model: each agent owns half
	// a CMP, so a coalition of k agents brings k/2 machines and must
	// re-pair internally — nobody gets a machine to themselves. Odd
	// coalitions cannot host all their members and are infeasible.
	//
	// Under this model, any internal re-pairing that benefits everyone
	// contains a new pair that already blocks by itself, so coalition
	// stability collapses to pairwise stability — the game-theoretic
	// justification for the paper counting blocking *pairs*.
	SharedHardware CoalitionModel = iota
	// PrivateHardware grants each breakaway agent a whole machine if it
	// wants one: members may re-pair or run solo. A strictly stronger
	// stability requirement than pairwise stability (a badly matched pair
	// can block by simply splitting up).
	PrivateHardware
)

// FindBlockingCoalition searches for a coalition of up to maxSize agents
// that blocks the matching under the given hardware model: every member
// strictly improves by more than alpha under some feasible internal
// re-matching. It returns nil when the matching is coalition-stable up to
// maxSize.
//
// The search enumerates subsets, so it is exponential in n: intended for
// populations of a few dozen agents.
func FindBlockingCoalition(m matching.Matching, d [][]float64, alpha float64,
	maxSize int, model CoalitionModel) (*BlockingCoalition, error) {
	n := len(m)
	if err := matching.ValidatePenalties(d); err != nil {
		return nil, err
	}
	if len(d) != n {
		return nil, fmt.Errorf("game: matching over %d agents but %d penalty rows", n, len(d))
	}
	if maxSize < 2 {
		return nil, fmt.Errorf("game: maxSize %d must be at least 2", maxSize)
	}
	if n > 24 {
		return nil, fmt.Errorf("game: coalition search infeasible for n=%d", n)
	}
	current := make([]float64, n)
	for i, j := range m {
		if j != matching.Unmatched {
			current[i] = d[i][j]
		}
	}

	// Only agents paying more than alpha can strictly improve.
	var candidates []int
	for i := 0; i < n; i++ {
		if current[i] > alpha {
			candidates = append(candidates, i)
		}
	}

	var result *BlockingCoalition
	subset := make([]int, 0, maxSize)
	var rec func(start int)
	rec = func(start int) {
		if result != nil {
			return
		}
		feasibleSize := len(subset) >= 2 &&
			(model == PrivateHardware || len(subset)%2 == 0)
		if feasibleSize {
			if bc := tryCoalition(subset, current, d, alpha, model); bc != nil {
				result = bc
				return
			}
		}
		if len(subset) == maxSize {
			return
		}
		for k := start; k < len(candidates); k++ {
			subset = append(subset, candidates[k])
			rec(k + 1)
			subset = subset[:len(subset)-1]
			if result != nil {
				return
			}
		}
	}
	rec(0)
	return result, nil
}

// tryCoalition checks whether the given agents can re-match internally so
// every member strictly gains more than alpha, under the hardware model's
// feasibility rule.
func tryCoalition(agents []int, current []float64, d [][]float64, alpha float64,
	model CoalitionModel) *BlockingCoalition {
	k := len(agents)
	assign := make(matching.Matching, k)
	for i := range assign {
		assign[i] = matching.Unmatched
	}
	var best *BlockingCoalition
	var rec func(pos int)
	rec = func(pos int) {
		if best != nil {
			return
		}
		if pos == k {
			minGain := 0.0
			first := true
			for a, b := range assign {
				i := agents[a]
				pen := 0.0
				if b != matching.Unmatched {
					pen = d[i][agents[b]]
				}
				gain := current[i] - pen
				if gain <= alpha {
					return
				}
				if first || gain < minGain {
					minGain = gain
					first = false
				}
			}
			best = &BlockingCoalition{
				Agents:  append([]int(nil), agents...),
				Rematch: append(matching.Matching(nil), assign...),
				MinGain: minGain,
			}
			return
		}
		if assign[pos] != matching.Unmatched {
			rec(pos + 1)
			return
		}
		// Solo is feasible only when the coalition has spare machines.
		if model == PrivateHardware {
			rec(pos + 1)
			if best != nil {
				return
			}
		}
		for q := pos + 1; q < k; q++ {
			if assign[q] != matching.Unmatched {
				continue
			}
			assign[pos], assign[q] = q, pos
			rec(pos + 1)
			assign[pos], assign[q] = matching.Unmatched, matching.Unmatched
			if best != nil {
				return
			}
		}
	}
	rec(0)
	return best
}
