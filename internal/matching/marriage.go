// Package matching implements the stable-matching algorithms Cooper adapts
// to the colocation game: Gale–Shapley stable marriage (Algorithm 1 in the
// paper, in both sequential and parallel-rounds form), Irving's stable
// roommates algorithm with rotation elimination, the paper's greedy
// completion heuristic for populations with no perfectly stable roommate
// solution, and blocking-pair analysis with the α break-away threshold of
// the paper's Figure 10.
//
// Agents are dense integer indices. A matching is a slice where match[i]
// is i's partner and Unmatched marks agents left alone.
package matching

import (
	"fmt"
)

// Unmatched marks an agent with no partner in a Matching.
const Unmatched = -1

// Matching records partners: m[i] is agent i's partner index, or Unmatched.
type Matching []int

// Pairs returns the matched pairs (i, j) with i < j.
func (m Matching) Pairs() [][2]int {
	var pairs [][2]int
	for i, j := range m {
		if j != Unmatched && i < j {
			pairs = append(pairs, [2]int{i, j})
		}
	}
	return pairs
}

// Validate checks that the matching is a symmetric partial pairing.
func (m Matching) Validate() error {
	for i, j := range m {
		if j == Unmatched {
			continue
		}
		if j < 0 || j >= len(m) {
			return fmt.Errorf("matching: agent %d paired with out-of-range %d", i, j)
		}
		if j == i {
			return fmt.Errorf("matching: agent %d paired with itself", i)
		}
		if m[j] != i {
			return fmt.Errorf("matching: asymmetric pair %d->%d but %d->%d", i, j, j, m[j])
		}
	}
	return nil
}

// StableMarriage runs proposer-optimal Gale–Shapley deferred acceptance.
// proposerPrefs[i] ranks receiver indices best-first; receiverPrefs[j]
// ranks proposer indices best-first. Both sides must have the same size
// and complete preference lists (every list a permutation of the opposite
// side). It returns proposerMatch where proposerMatch[i] is the receiver
// matched to proposer i.
//
// With complete lists the result is a perfect matching, stable in the
// cross-set sense: no proposer and receiver prefer each other over their
// assigned partners.
func StableMarriage(proposerPrefs, receiverPrefs [][]int) ([]int, error) {
	match, _, err := StableMarriageProposals(proposerPrefs, receiverPrefs)
	return match, err
}

// StableMarriageProposals is StableMarriage plus the number of proposals
// deferred acceptance issued — the work metric the paper's §IV overhead
// discussion tracks and the telemetry layer exports.
func StableMarriageProposals(proposerPrefs, receiverPrefs [][]int) ([]int, int, error) {
	n := len(proposerPrefs)
	if err := validateBipartite(proposerPrefs, receiverPrefs); err != nil {
		return nil, 0, err
	}

	// receiverRank[j][i] = rank of proposer i in receiver j's list.
	receiverRank := rankMatrix(receiverPrefs)

	next := make([]int, n)  // next proposal index per proposer
	holds := make([]int, n) // receiver j currently holds proposer holds[j]
	proposerMatch := make([]int, n)
	for j := range holds {
		holds[j] = Unmatched
		proposerMatch[j] = Unmatched
	}

	free := make([]int, 0, n)
	for i := n - 1; i >= 0; i-- {
		free = append(free, i)
	}
	proposals := 0
	for len(free) > 0 {
		m := free[len(free)-1]
		free = free[:len(free)-1]
		if next[m] >= n {
			// Complete lists guarantee acceptance before exhaustion; this
			// is unreachable but keeps the loop total.
			continue
		}
		w := proposerPrefs[m][next[m]]
		next[m]++
		proposals++
		switch cur := holds[w]; {
		case cur == Unmatched:
			holds[w] = m
		case receiverRank[w][m] < receiverRank[w][cur]:
			holds[w] = m
			free = append(free, cur)
		default:
			free = append(free, m)
		}
	}
	for w, m := range holds {
		if m != Unmatched {
			proposerMatch[m] = w
		}
	}
	return proposerMatch, proposals, nil
}

// StableMarriageRounds runs the paper's parallel formulation: each round,
// all unmatched proposers propose to their best not-yet-tried receiver
// simultaneously; each receiver keeps the best proposal (including its
// current hold) and rejects the rest. The result is identical to
// StableMarriage — deferred acceptance is confluent — but the procedure
// mirrors the paper's description and parallel implementation.
func StableMarriageRounds(proposerPrefs, receiverPrefs [][]int) ([]int, int, error) {
	n := len(proposerPrefs)
	if err := validateBipartite(proposerPrefs, receiverPrefs); err != nil {
		return nil, 0, err
	}
	receiverRank := rankMatrix(receiverPrefs)

	next := make([]int, n)
	holds := make([]int, n)
	for j := range holds {
		holds[j] = Unmatched
	}
	heldBy := make([]int, n) // proposer i is held by receiver heldBy[i]
	for i := range heldBy {
		heldBy[i] = Unmatched
	}

	rounds := 0
	for {
		// Gather this round's proposals.
		proposals := make(map[int][]int) // receiver -> proposers
		active := false
		for m := 0; m < n; m++ {
			if heldBy[m] != Unmatched || next[m] >= n {
				continue
			}
			w := proposerPrefs[m][next[m]]
			next[m]++
			proposals[w] = append(proposals[w], m)
			active = true
		}
		if !active {
			break
		}
		rounds++
		// Each receiver keeps its best suitor.
		for w, suitors := range proposals {
			best := holds[w]
			for _, m := range suitors {
				if best == Unmatched || receiverRank[w][m] < receiverRank[w][best] {
					best = m
				}
			}
			if prev := holds[w]; prev != Unmatched && prev != best {
				heldBy[prev] = Unmatched
			}
			holds[w] = best
			heldBy[best] = w
		}
	}

	proposerMatch := make([]int, n)
	for i := range proposerMatch {
		proposerMatch[i] = heldBy[i]
	}
	return proposerMatch, rounds, nil
}

func validateBipartite(proposerPrefs, receiverPrefs [][]int) error {
	n := len(proposerPrefs)
	if len(receiverPrefs) != n {
		return fmt.Errorf("matching: %d proposers vs %d receivers",
			n, len(receiverPrefs))
	}
	seen := make([]bool, n)
	for side, prefs := range [][][]int{proposerPrefs, receiverPrefs} {
		checked := make(map[*int]bool)
		for i, list := range prefs {
			if len(list) != n {
				return fmt.Errorf("matching: side %d agent %d has %d prefs, want %d",
					side, i, len(list), n)
			}
			// Agents of one class share one list (Penalties.Lists): a list
			// of the right length is a permutation or not whoever holds it.
			if checked[&list[0]] {
				continue
			}
			checked[&list[0]] = true
			clear(seen)
			for _, j := range list {
				if j < 0 || j >= n {
					return fmt.Errorf("matching: side %d agent %d ranks out-of-range %d",
						side, i, j)
				}
				if seen[j] {
					return fmt.Errorf("matching: side %d agent %d ranks %d twice",
						side, i, j)
				}
				seen[j] = true
			}
		}
	}
	return nil
}

// rankMatrix inverts preference lists: rank[i][j] = position of j in i's
// list. Lists that share storage share their rank row, so a side with few
// distinct lists costs one inversion per list, not per agent.
func rankMatrix(prefs [][]int) [][]int {
	type key struct {
		first *int
		n     int
	}
	rank := make([][]int, len(prefs))
	shared := make(map[key][]int)
	for i, list := range prefs {
		if len(list) == 0 {
			rank[i] = make([]int, len(prefs))
			continue
		}
		k := key{&list[0], len(list)}
		row, ok := shared[k]
		if !ok {
			row = make([]int, len(prefs))
			for pos, j := range list {
				row[j] = pos
			}
			shared[k] = row
		}
		rank[i] = row
	}
	return rank
}

// CrossBlockingPairs counts proposer/receiver pairs that prefer each other
// over their assigned partners — the marriage-stability certificate.
func CrossBlockingPairs(proposerMatch []int, proposerPrefs, receiverPrefs [][]int) [][2]int {
	n := len(proposerMatch)
	proposerRank := rankMatrix(proposerPrefs)
	receiverRank := rankMatrix(receiverPrefs)
	receiverMatch := make([]int, n)
	for i := range receiverMatch {
		receiverMatch[i] = Unmatched
	}
	for m, w := range proposerMatch {
		if w != Unmatched {
			receiverMatch[w] = m
		}
	}
	var blocking [][2]int
	for m := 0; m < n; m++ {
		for w := 0; w < n; w++ {
			if proposerMatch[m] == w {
				continue
			}
			mPrefers := proposerMatch[m] == Unmatched ||
				proposerRank[m][w] < proposerRank[m][proposerMatch[m]]
			wPrefers := receiverMatch[w] == Unmatched ||
				receiverRank[w][m] < receiverRank[w][receiverMatch[w]]
			if mPrefers && wPrefers {
				blocking = append(blocking, [2]int{m, w})
			}
		}
	}
	return blocking
}
