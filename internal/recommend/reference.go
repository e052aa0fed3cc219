package recommend

import (
	"context"
	"fmt"
	"math"

	"cooper/internal/parallel"
)

// This file is the retained naive prediction kernel: [][]float64 rows, a
// NaN test per cell, and a from-scratch O(n³) similarity pass per fill
// iteration. It is not the production path — kernel.go's flat kernel is —
// but stays as the executable specification the randomized equivalence
// suite pins the flat kernel against bit for bit, and as the baseline
// BenchmarkCompleteReference measures the kernel speedup from.

// completeReference is the naive CompleteContext implementation.
func (p Predictor) completeReference(ctx context.Context, m [][]float64) ([][]float64, int, error) {
	n := len(m)
	out := make([][]float64, n)
	known := 0
	for i, row := range m {
		if len(row) != n {
			return nil, 0, fmt.Errorf("recommend: row %d has %d entries, want %d",
				i, len(row), n)
		}
		out[i] = append([]float64(nil), row...)
		for _, v := range row {
			if !math.IsNaN(v) {
				known++
			}
		}
	}
	if n == 0 {
		return out, 0, nil
	}
	if known == 0 {
		return nil, 0, fmt.Errorf("recommend: matrix has no known entries")
	}

	maxIters := p.maxIters()
	iters := 0
	for ; iters < maxIters && hasNaN(out); iters++ {
		if err := ctx.Err(); err != nil {
			return nil, iters, fmt.Errorf("recommend: %w", err)
		}
		sim, err := p.itemSimilarities(ctx, out)
		if err != nil {
			return nil, iters, err
		}
		next := make([][]float64, n)
		for i := range out {
			next[i] = append([]float64(nil), out[i]...)
		}
		// Row i's worker reads the previous iteration's matrix and
		// writes only next[i], so the fan-out is race-free and the
		// result worker-count independent.
		err = parallel.ForEach(ctx, p.Workers, n, func(i int) error {
			for j := 0; j < n; j++ {
				if !math.IsNaN(out[i][j]) {
					continue
				}
				if v, ok := predict(out, sim, i, j); ok {
					next[i][j] = v
				}
			}
			return nil
		})
		if err != nil {
			return nil, iters, err
		}
		out = next
	}

	filled := 0
	for i := range out {
		for j := range out[i] {
			if math.IsNaN(m[i][j]) && !math.IsNaN(out[i][j]) {
				filled++
			}
		}
	}

	fallback := fallbackFill(out)
	if p.Metrics != nil {
		p.Metrics.Counter("predict.fill_iters").Add(int64(iters))
		p.Metrics.Counter("predict.cells_filled").Add(int64(filled))
		p.Metrics.Counter("predict.fallback_cells").Add(int64(fallback))
	}
	return out, iters, nil
}

// itemSimilarities computes adjusted-cosine similarity between columns
// (co-runners): ratings are centered on each row's mean so that jobs with
// uniformly high penalties do not dominate. Columns fan out across
// p.Workers workers; column j's worker owns cells sim[j][k] and
// sim[k][j] for k >= j, so distinct columns write disjoint cells.
func (p Predictor) itemSimilarities(ctx context.Context, m [][]float64) ([][]float64, error) {
	n := len(m)
	rowMean := make([]float64, n)
	for i, row := range m {
		var sum float64
		var cnt int
		for _, v := range row {
			if !math.IsNaN(v) {
				sum += v
				cnt++
			}
		}
		if cnt > 0 {
			rowMean[i] = sum / float64(cnt)
		}
	}
	sim := make([][]float64, n)
	for j := range sim {
		sim[j] = make([]float64, n)
	}
	err := parallel.ForEach(ctx, p.Workers, n, func(j int) error {
		sim[j][j] = 1
		for k := j + 1; k < n; k++ {
			var dot, nj, nk float64
			overlap := 0
			for i := 0; i < n; i++ {
				a, b := m[i][j], m[i][k]
				if math.IsNaN(a) || math.IsNaN(b) {
					continue
				}
				a -= rowMean[i]
				b -= rowMean[i]
				dot += a * b
				nj += a * a
				nk += b * b
				overlap++
			}
			if overlap < minOverlap || nj == 0 || nk == 0 {
				continue
			}
			s := dot / (math.Sqrt(nj) * math.Sqrt(nk))
			sim[j][k] = s
			sim[k][j] = s
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return sim, nil
}

// predict estimates entry (i, j) as the similarity-weighted mean of row
// i's known ratings of items similar to j, in ascending column order.
// Returns false when no usable neighbor exists.
func predict(m, sim [][]float64, i, j int) (float64, bool) {
	var num, den float64
	for k, v := range m[i] {
		// Only a strictly positive similarity votes; a NaN one (non-finite
		// or overflowing input) does not.
		if s := sim[j][k]; k != j && !math.IsNaN(v) && s > 0 {
			num += s * v
			den += s
		}
	}
	if den == 0 {
		return 0, false
	}
	return num / den, true
}
