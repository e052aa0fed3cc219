package recommend

import (
	"math"
	"math/rand"
)

// MaskPairs returns a copy of dense with only a sampled fraction of its
// unordered colocations kept and every other entry NaN — the sparse
// observation matrix the predictor is trained on, as in the paper's
// Figure 12 accuracy sweep. Keeping pair (i, j), i ≤ j, reveals both
// d[i][j] and d[j][i], matching how the profiler observes both sides of
// one colocated run; this is the paper's sampling unit ("100 sampled
// colocations" for 20 jobs at 25%). Sampling is uniform without
// replacement over the pairs, and fraction is clamped to [0, 1].
func MaskPairs(dense [][]float64, fraction float64, r *rand.Rand) [][]float64 {
	n := len(dense)
	out := make([][]float64, n)
	for i := range dense {
		out[i] = make([]float64, len(dense[i]))
		for j := range dense[i] {
			out[i][j] = math.NaN()
		}
	}
	var pairs [][2]int
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			pairs = append(pairs, [2]int{i, j})
		}
	}
	if fraction < 0 {
		fraction = 0
	}
	if fraction > 1 {
		fraction = 1
	}
	r.Shuffle(len(pairs), func(a, b int) { pairs[a], pairs[b] = pairs[b], pairs[a] })
	keep := int(math.Round(fraction * float64(len(pairs))))
	for _, p := range pairs[:keep] {
		i, j := p[0], p[1]
		out[i][j] = dense[i][j]
		out[j][i] = dense[j][i]
	}
	return out
}
