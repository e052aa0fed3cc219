package experiments

import (
	"math/rand"
	"testing"

	"cooper/internal/agent"
	"cooper/internal/matching"
	"cooper/internal/rematch"
)

// TestBreakAwayIsBlockingMembership pins what Figure 10 counts: an agent
// belongs to a pairwise α-blocking pair (Penalties.BlockingPairs) exactly
// when the market's class-count assessment (rematch.Assess) marks it
// BreakAway at α, Assess's pair count is the number of those pairs, and
// its break-away count the number of those agents.
// Instances are tie-heavy — few classes, penalties from a handful of
// values — with partial matchings that leave solos.
func TestBreakAwayIsBlockingMembership(t *testing.T) {
	values := []float64{0, 0.02, 0.05, 0.07, 0.1, 0.15}
	rng := rand.New(rand.NewSource(10))
	for inst := 0; inst < 400; inst++ {
		classes := 1 + rng.Intn(6)
		matrix := make([][]float64, classes)
		for a := range matrix {
			matrix[a] = make([]float64, classes)
			for b := range matrix[a] {
				matrix[a][b] = values[rng.Intn(len(values))]
			}
		}
		n := 2 + rng.Intn(50)
		class := make([]int, n)
		for i := range class {
			class[i] = rng.Intn(classes)
		}
		match := make(matching.Matching, n)
		for i := range match {
			match[i] = matching.Unmatched
		}
		perm := rng.Perm(n)
		for k := 0; k+1 < n && rng.Intn(5) > 0; k += 2 {
			match[perm[k]], match[perm[k+1]] = perm[k+1], perm[k]
		}
		p := matching.Penalties{Matrix: matrix, Class: class}
		for _, alpha := range []float64{0, 0.02, 0.05, 0.1} {
			pairs := p.BlockingPairs(match, alpha)
			blocks := make([]bool, n)
			for _, bp := range pairs {
				blocks[bp[0]], blocks[bp[1]] = true, true
			}
			a := rematch.Assess(p, match, alpha, nil)
			if a.BlockingPairs != len(pairs) {
				t.Fatalf("instance %d α=%v: Assess counts %d pairs, pairwise %d", inst, alpha, a.BlockingPairs, len(pairs))
			}
			members := 0
			for i, rec := range a.Recommendations() {
				if breaks := rec.Action == agent.BreakAway; breaks != blocks[i] {
					t.Fatalf("instance %d α=%v agent %d: BreakAway=%v but in a blocking pair=%v",
						inst, alpha, i, breaks, blocks[i])
				}
				if blocks[i] {
					members++
				}
			}
			if a.BreakAways != members {
				t.Fatalf("instance %d α=%v: Assess counts %d break-aways, %d agents are in a blocking pair", inst, alpha, a.BreakAways, members)
			}
		}
	}
}
