package stats

import (
	"math"
	"sort"
)

// Ranks assigns 1-based fractional ranks to xs: the smallest value gets
// rank 1, and ties receive the average of the ranks they span (midranks).
// Fractional midranks keep Spearman correlation unbiased under ties, which
// matters for the paper's Figure 8 where several PARSEC jobs share nearly
// identical bandwidth demands.
func Ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		// Average rank for the tie group [i, j].
		avg := (float64(i+1) + float64(j+1)) / 2
		for k := i; k <= j; k++ {
			ranks[idx[k]] = avg
		}
		i = j + 1
	}
	return ranks
}

// Pearson returns the Pearson product-moment correlation of xs and ys. It
// returns 0 when either series has zero variance or the lengths mismatch.
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / (math.Sqrt(sxx) * math.Sqrt(syy))
}

// Spearman returns the Spearman rank correlation of xs and ys: the Pearson
// correlation of their midranks. The paper's fairness claim is exactly a
// Spearman statement — penalty rank should track bandwidth-demand rank.
func Spearman(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0
	}
	return Pearson(Ranks(xs), Ranks(ys))
}
