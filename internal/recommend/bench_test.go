package recommend

import (
	"context"
	"fmt"
	"testing"
)

// Kernel benchmarks: the flat production kernel against the retained
// naive reference at n = 20/100/400, and against its LSH-bucketed
// approximate path at n = 2000 and on a multi-iteration input at n = 600.
// Run with -benchmem: BenchmarkPredictCell is the acceptance proof that
// the per-cell prediction path allocates nothing per predicted cell.

// benchComplete runs one kernel over a fixed random sparse matrix with
// the given fraction of entries known.
func benchComplete(b *testing.B, p Predictor, n int, known float64) {
	b.Helper()
	m := randSparse(n, known, int64(n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := p.Complete(m); err != nil {
			b.Fatal(err)
		}
	}
}

// benchMultiIter runs p on the multi-iteration leg: at 5% known, n = 600
// fills in 2 iterations, so the later similarity pass runs over a denser
// matrix.
func benchMultiIter(b *testing.B, p Predictor) {
	b.Run("n=600,known=5%", func(b *testing.B) { benchComplete(b, p, 600, 0.05) })
}

// BenchmarkCompleteFlat measures the flat kernel end to end (single
// worker, so speedups over the reference are representation wins, not
// parallelism). The n=2000 and multi-iteration legs are the exact runs
// BenchmarkCompleteApprox is measured against.
func BenchmarkCompleteFlat(b *testing.B) {
	p := Default()
	p.Workers = 1
	for _, n := range []int{20, 100, 400, 2000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchComplete(b, p, n, 0.25) })
	}
	benchMultiIter(b, p)
}

// BenchmarkCompleteReference measures the retained naive kernel on the
// same inputs — the baseline the flat kernel's speedup is quoted
// against.
func BenchmarkCompleteReference(b *testing.B) {
	for _, n := range []int{20, 100, 400} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			p := Default().WithReferenceKernel()
			p.Workers = 1
			benchComplete(b, p, n, 0.25)
		})
	}
}

// BenchmarkCompleteApprox measures the approximate kernel (the exact
// kernel behind a SimHash candidate mask, single worker) on the inputs of
// BenchmarkCompleteFlat's n=2000 and multi-iteration legs; their ratio is
// what the candidate build costs.
func BenchmarkCompleteApprox(b *testing.B) {
	p := Default()
	p.Workers = 1
	p.Approx = DefaultApprox()
	b.Run("n=2000", func(b *testing.B) { benchComplete(b, p, 2000, 0.25) })
	benchMultiIter(b, p)
}

// BenchmarkPredictCell measures one cell prediction on the per-cell path
// that rows with infinite known values take (the fill predicts other rows
// four cells per pass over a row list, measured end to end by
// BenchmarkCompleteFlat) through a warmed kernel: with -benchmem it must
// report 0 allocs/op.
func BenchmarkPredictCell(b *testing.B) {
	n := 400
	m := randSparse(n, 0.25, 1)
	k, err := newKernel(Default(), m)
	if err != nil {
		b.Fatal(err)
	}
	k.computeRowMeans()
	if err := k.similarityTiles(context.Background()); err != nil {
		b.Fatal(err)
	}
	// Pick an unknown cell in a row with known neighbors.
	ti, tj := -1, -1
	for i := 0; i < n && ti < 0; i++ {
		rk := bitset(k.rowKnown[i*k.w : (i+1)*k.w])
		if !rk.any() {
			continue
		}
		for j := 0; j < n; j++ {
			if !rk.get(j) {
				ti, tj = i, j
				break
			}
		}
	}
	if ti < 0 {
		b.Fatal("no unknown cell with known neighbors")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.predictCell(ti, tj)
	}
}

// BenchmarkPreferenceAccuracy measures the sign-agreement scorer on a
// completed matrix pair; the n=800 leg took 0.93 s while the count was
// cubic.
func BenchmarkPreferenceAccuracy(b *testing.B) {
	for _, n := range []int{400, 800} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			truth := randSparse(n, 1.0, 2)
			pred := randSparse(n, 1.0, 3)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				PreferenceAccuracy(truth, pred)
			}
		})
	}
}
