// Package stats provides the statistical substrate used throughout the
// Cooper reproduction: descriptive summaries, rank statistics and
// correlation coefficients, boxplot/quartile computations, histograms, and
// random samplers for the workload-mix densities used in the paper's
// sensitivity analysis (Uniform, Gaussian, Beta).
//
// All routines are deterministic given an explicit *rand.Rand so that
// experiments are repeatable.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs. It returns 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance of xs (dividing by n, not n-1).
// It returns 0 for slices with fewer than two elements.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var sum float64
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// Max returns the largest element of xs, or -Inf for an empty slice.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Quantile returns the q-th quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics (the "type 7" estimator used by R
// and NumPy, matching the boxplots in the paper's figures). It panics if xs
// is empty or q is outside [0, 1].
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("stats: Quantile of empty slice")
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: quantile %v outside [0,1]", q))
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Boxplot summarizes a sample in the five-number form used by the paper's
// Figure 10 and Figure 11: quartiles plus whiskers at the most extreme data
// points within whisker*IQR of the box, with everything beyond flagged as
// outliers.
type Boxplot struct {
	Min, Q1, Median, Q3, Max float64 // Min/Max are whisker ends, not extremes
	Outliers                 []float64
	N                        int
}

// NewBoxplot computes a Boxplot for xs with the conventional whisker
// multiplier (1.5 IQR beyond the quartiles; the paper's Figure 11 mentions
// a 3x upper whisker, which callers obtain by passing whisker=3 to
// NewBoxplotWhisker). It panics on an empty sample.
func NewBoxplot(xs []float64) Boxplot { return NewBoxplotWhisker(xs, 1.5) }

// NewBoxplotWhisker computes a Boxplot with an explicit whisker multiplier.
func NewBoxplotWhisker(xs []float64, whisker float64) Boxplot {
	if len(xs) == 0 {
		panic("stats: Boxplot of empty slice")
	}
	b := Boxplot{
		Q1:     Quantile(xs, 0.25),
		Median: Quantile(xs, 0.5),
		Q3:     Quantile(xs, 0.75),
		N:      len(xs),
	}
	iqr := b.Q3 - b.Q1
	loFence := b.Q1 - whisker*iqr
	hiFence := b.Q3 + whisker*iqr
	b.Min = math.Inf(1)
	b.Max = math.Inf(-1)
	for _, x := range xs {
		if x < loFence || x > hiFence {
			b.Outliers = append(b.Outliers, x)
			continue
		}
		if x < b.Min {
			b.Min = x
		}
		if x > b.Max {
			b.Max = x
		}
	}
	// Degenerate case: everything was an outlier (can't happen with
	// whisker >= 0, but guard against NaN inputs).
	if math.IsInf(b.Min, 1) {
		b.Min, b.Max = b.Median, b.Median
	}
	sort.Float64s(b.Outliers)
	return b
}
