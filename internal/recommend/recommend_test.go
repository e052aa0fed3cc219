package recommend

import (
	"math"
	"math/rand"
	"testing"

	"cooper/internal/arch"
	"cooper/internal/profiler"
	"cooper/internal/stats"
	"cooper/internal/workload"
)

func denseCatalogPenalties(t *testing.T) [][]float64 {
	t.Helper()
	cmp := arch.DefaultCMP()
	jobs, err := workload.Catalog(cmp)
	if err != nil {
		t.Fatal(err)
	}
	return profiler.DensePenalties(cmp, jobs)
}

func TestCompleteFullyObservedIsIdentity(t *testing.T) {
	dense := denseCatalogPenalties(t)
	filled, iters, err := Default().Complete(dense)
	if err != nil {
		t.Fatal(err)
	}
	if iters != 0 {
		t.Errorf("fully observed matrix took %d iterations", iters)
	}
	for i := range dense {
		for j := range dense {
			if filled[i][j] != dense[i][j] {
				t.Fatalf("entry [%d][%d] changed: %v -> %v",
					i, j, dense[i][j], filled[i][j])
			}
		}
	}
}

func TestCompletePreservesKnownEntries(t *testing.T) {
	dense := denseCatalogPenalties(t)
	sparse := MaskPairs(dense, 0.3, stats.NewRand(1))
	filled, _, err := Default().Complete(sparse)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sparse {
		for j := range sparse {
			if !math.IsNaN(sparse[i][j]) && filled[i][j] != sparse[i][j] {
				t.Fatalf("known entry [%d][%d] changed", i, j)
			}
			if math.IsNaN(filled[i][j]) {
				t.Fatalf("entry [%d][%d] left NaN", i, j)
			}
		}
	}
}

func TestCompleteAccuracyImprovesWithSampling(t *testing.T) {
	dense := denseCatalogPenalties(t)
	r := stats.NewRand(2)
	accuracyAt := func(fraction float64) float64 {
		var sum float64
		const trials = 5
		for k := 0; k < trials; k++ {
			sparse := MaskPairs(dense, fraction, r)
			filled, _, err := Default().Complete(sparse)
			if err != nil {
				t.Fatal(err)
			}
			acc, err := PreferenceAccuracy(dense, filled)
			if err != nil {
				t.Fatal(err)
			}
			sum += acc
		}
		return sum / trials
	}
	low := accuracyAt(0.25)
	high := accuracyAt(0.75)
	if low < 0.70 {
		t.Errorf("accuracy at 25%% sampling = %.3f, want >= 0.70 (paper: ~0.83)", low)
	}
	if high < low {
		t.Errorf("accuracy should improve with data: 25%% -> %.3f, 75%% -> %.3f", low, high)
	}
	if high < 0.85 {
		t.Errorf("accuracy at 75%% sampling = %.3f, want >= 0.85 (paper: ~0.95)", high)
	}
}

func TestCompleteErrors(t *testing.T) {
	if _, _, err := Default().Complete([][]float64{{1, 2}, {3}}); err == nil {
		t.Error("ragged matrix accepted")
	}
	nan := math.NaN()
	if _, _, err := Default().Complete([][]float64{{nan, nan}, {nan, nan}}); err == nil {
		t.Error("all-unknown matrix accepted")
	}
	filled, iters, err := Default().Complete(nil)
	if err != nil || len(filled) != 0 || iters != 0 {
		t.Errorf("empty matrix: %v %d %v", filled, iters, err)
	}
}

func TestCompleteFallbackFillsIsolatedRow(t *testing.T) {
	nan := math.NaN()
	// Row 2 has a single observation and no overlap with other rows'
	// columns; fallback must still produce a dense result.
	m := [][]float64{
		{0.1, 0.2, nan},
		{0.2, 0.1, nan},
		{nan, nan, 0.4},
	}
	filled, _, err := Default().Complete(m)
	if err != nil {
		t.Fatal(err)
	}
	for i := range filled {
		for j := range filled {
			if math.IsNaN(filled[i][j]) {
				t.Fatalf("entry [%d][%d] still NaN: %v", i, j, filled)
			}
		}
	}
	// Row 2's unknowns should fall back to its row mean (0.4).
	if filled[2][0] != 0.4 || filled[2][1] != 0.4 {
		t.Errorf("fallback row mean expected, got %v", filled[2])
	}
}

func TestCompleteIterationsBounded(t *testing.T) {
	dense := denseCatalogPenalties(t)
	sparse := MaskPairs(dense, 0.25, stats.NewRand(3))
	p := Default()
	_, iters, err := p.Complete(sparse)
	if err != nil {
		t.Fatal(err)
	}
	if iters < 1 || iters > p.MaxIters {
		t.Errorf("iterations = %d, want 1..%d (paper: 1-3)", iters, p.MaxIters)
	}
}

func TestPreferenceAccuracyExact(t *testing.T) {
	truth := [][]float64{
		{0, 0.1, 0.2},
		{0.3, 0, 0.1},
		{0.2, 0.4, 0},
	}
	perfect, err := PreferenceAccuracy(truth, truth)
	if err != nil {
		t.Fatal(err)
	}
	if perfect != 1 {
		t.Errorf("self accuracy = %v, want 1", perfect)
	}
	// Inverting one row's order flips that row's single counted pair.
	pred := [][]float64{
		{0, 0.2, 0.1}, // row 0 ranks co-runners 1,2 in reverse
		{0.3, 0, 0.1},
		{0.2, 0.4, 0},
	}
	got, err := PreferenceAccuracy(truth, pred)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 - 1.0/3.0 // 3 rows x 1 off-diagonal pair each, 1 wrong
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("accuracy = %v, want %v", got, want)
	}
}

func TestPreferenceAccuracyTies(t *testing.T) {
	truth := [][]float64{
		{0, 0.1, 0.1},
		{0.1, 0, 0.1},
		{0.1, 0.1, 0},
	}
	pred := [][]float64{
		{0, 0.1, 0.2},
		{0.1, 0, 0.1},
		{0.1, 0.1, 0},
	}
	// Row 0: truth ties 1 vs 2, prediction orders them: counted wrong.
	got, err := PreferenceAccuracy(truth, pred)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-(1-1.0/3.0)) > 1e-12 {
		t.Errorf("tie handling: accuracy = %v", got)
	}
}

// preferenceAccuracyReference is the cubic pair-by-pair Equation 2 that
// PreferenceAccuracy used to be: the specification its sort-based count
// must reproduce exactly.
func preferenceAccuracyReference(truth, pred [][]float64) float64 {
	n := len(truth)
	total := n * (n - 1) * (n - 2) / 2
	if total == 0 {
		return 1
	}
	wrong := 0
	for a := 0; a < n; a++ {
		ta, pa := truth[a], pred[a]
		for i := 0; i < n; i++ {
			if i == a {
				continue
			}
			for j := i + 1; j < n; j++ {
				if j == a {
					continue
				}
				dt, dp := ta[i]-ta[j], pa[i]-pa[j]
				if (dt > 0) != (dp > 0) || (dt < 0) != (dp < 0) {
					wrong++
				}
			}
		}
	}
	return 1 - float64(wrong)/float64(total)
}

// TestPreferenceAccuracyMatchesReference holds the sort-based count to
// the pairwise one, bit for bit, where they could part: heavy ties in
// either matrix or both, all-equal rows, signed zeros, infinities, rows
// with NaN (counted pair by pair), and the smallest sizes.
func TestPreferenceAccuracyMatchesReference(t *testing.T) {
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0}
	for _, n := range []int{0, 1, 2, 3, 4, 17, 65} {
		for levels := 1; levels <= 64; levels *= 4 {
			for seed := int64(0); seed < 4; seed++ {
				r := rand.New(rand.NewSource(seed + int64(1000*n+levels)))
				truth := make([][]float64, n)
				pred := make([][]float64, n)
				for i := range truth {
					truth[i] = make([]float64, n)
					pred[i] = make([]float64, n)
					for j := range truth[i] {
						truth[i][j] = float64(r.Intn(levels))
						pred[i][j] = float64(r.Intn(levels))
						if seed == 3 && r.Intn(40) == 0 {
							pred[i][j] = special[r.Intn(len(special))]
						}
					}
				}
				if seed == 2 && n > 0 {
					copy(pred[0], truth[0]) // one row predicted perfectly
				}
				got, err := PreferenceAccuracy(truth, pred)
				if err != nil {
					t.Fatal(err)
				}
				if want := preferenceAccuracyReference(truth, pred); got != want {
					t.Errorf("n=%d levels=%d seed=%d: accuracy %v, reference %v", n, levels, seed, got, want)
				}
			}
		}
	}
}

func TestPreferenceAccuracyErrors(t *testing.T) {
	if _, err := PreferenceAccuracy([][]float64{{0}}, nil); err == nil {
		t.Error("size mismatch accepted")
	}
	if _, err := PreferenceAccuracy([][]float64{{0, 1}}, [][]float64{{0, 1}}); err == nil {
		t.Error("non-square accepted")
	}
	acc, err := PreferenceAccuracy([][]float64{{0}}, [][]float64{{0}})
	if err != nil || acc != 1 {
		t.Errorf("degenerate 1x1: %v %v", acc, err)
	}
}

// TestMaskFraction checks that MaskPairs keeps the rounded fraction of
// the n(n+1)/2 unordered pairs, and clamps the fraction to [0, 1].
func TestMaskFraction(t *testing.T) {
	dense := denseCatalogPenalties(t)
	n := len(dense)
	pairs := n * (n + 1) / 2
	r := stats.NewRand(5)
	for _, f := range []float64{0, 0.25, 0.5, 1} {
		masked := MaskPairs(dense, f, r)
		kept := 0
		for i := range masked {
			for j := i; j < n; j++ {
				if !math.IsNaN(masked[i][j]) {
					kept++
				}
			}
		}
		if want := int(math.Round(f * float64(pairs))); kept != want {
			t.Errorf("MaskPairs(%v) kept %d of %d pairs, want %d", f, kept, pairs, want)
		}
	}
	if got := profiler.Sparsity(MaskPairs(dense, -1, r)); got != 0 {
		t.Errorf("negative fraction sparsity = %v", got)
	}
	if got := profiler.Sparsity(MaskPairs(dense, 2, r)); got != 1 {
		t.Errorf("fraction above 1 sparsity = %v", got)
	}
}

func TestMaskPairsSymmetricReveal(t *testing.T) {
	dense := denseCatalogPenalties(t)
	masked := MaskPairs(dense, 0.3, stats.NewRand(6))
	for i := range masked {
		for j := range masked {
			if math.IsNaN(masked[i][j]) != math.IsNaN(masked[j][i]) {
				t.Fatalf("asymmetric reveal at [%d][%d]", i, j)
			}
		}
	}
}

func TestMaskDeterministic(t *testing.T) {
	dense := denseCatalogPenalties(t)
	a := MaskPairs(dense, 0.5, rand.New(rand.NewSource(9)))
	b := MaskPairs(dense, 0.5, rand.New(rand.NewSource(9)))
	for i := range a {
		for j := range a {
			an, bn := math.IsNaN(a[i][j]), math.IsNaN(b[i][j])
			if an != bn {
				t.Fatal("same seed should mask the same cells")
			}
		}
	}
}
