package recommend

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"cooper/internal/telemetry"
)

// randSparse builds an n×n matrix with roughly the given fraction of
// entries known (drawn uniformly per cell) and the rest NaN. Values come
// from a small discrete grid so exact similarity ties — the tie-break
// path — actually occur. At least one entry is forced known so Complete
// does not reject the matrix.
func randSparse(n int, density float64, seed int64) [][]float64 {
	r := rand.New(rand.NewSource(seed))
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
		for j := range m[i] {
			if r.Float64() < density {
				// Grid of 16 levels in [-0.05, 0.7]: coarse enough for
				// duplicate values and exact ties, shaped like penalties.
				m[i][j] = -0.05 + 0.05*float64(r.Intn(16))
			} else {
				m[i][j] = math.NaN()
			}
		}
	}
	m[r.Intn(n)][r.Intn(n)] = 0.25
	return m
}

// mustEqualBits fails unless a and b are bit-identical (NaN patterns
// included) — stricter than ==, which treats -0 == 0 and NaN != NaN.
func mustEqualBits(t *testing.T, label string, a, b [][]float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d rows vs %d", label, len(a), len(b))
	}
	for i := range a {
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				t.Fatalf("%s: cell [%d][%d] differs: %v (%#x) vs %v (%#x)",
					label, i, j, a[i][j], math.Float64bits(a[i][j]),
					b[i][j], math.Float64bits(b[i][j]))
			}
		}
	}
}

// TestFlatKernelMatchesReference is the equivalence suite: across sparse
// densities 5–90%, both filtering modes, K ∈ {0, 3, 10}, and several
// matrix sizes, the flat kernel's output must match the retained
// reference kernel bit for bit, at Workers 1 and 8 alike.
func TestFlatKernelMatchesReference(t *testing.T) {
	sizes := []int{1, 2, 5, 8, 17, 33, 64, 65}
	densities := []float64{0.05, 0.25, 0.5, 0.9}
	ks := []int{0, 3, 10}
	seed := int64(1)
	for _, n := range sizes {
		for _, density := range densities {
			for _, kk := range ks {
				for _, mode := range []Mode{ItemBased, UserBased} {
					seed++
					m := randSparse(n, density, seed)
					label := fmt.Sprintf("n=%d density=%.2f K=%d mode=%d", n, density, kk, mode)
					p := Predictor{K: kk, MinOverlap: 2, MaxIters: 3, Mode: mode}
					ref, refIters, refErr := p.WithReferenceKernel().Complete(m)
					for _, workers := range []int{1, 8} {
						pw := p
						pw.Workers = workers
						got, iters, err := pw.Complete(m)
						if (err != nil) != (refErr != nil) {
							t.Fatalf("%s workers=%d: err %v vs reference %v", label, workers, err, refErr)
						}
						if err != nil {
							continue
						}
						if iters != refIters {
							t.Fatalf("%s workers=%d: %d iters vs reference %d", label, workers, iters, refIters)
						}
						mustEqualBits(t, fmt.Sprintf("%s workers=%d", label, workers), got, ref)
					}
				}
			}
		}
	}
}

// TestFlatKernelMatchesReferenceMinOverlap sweeps the overlap threshold,
// including the zero value a zero Predictor carries.
func TestFlatKernelMatchesReferenceMinOverlap(t *testing.T) {
	for _, minOverlap := range []int{0, 1, 2, 5} {
		for _, mode := range []Mode{ItemBased, UserBased} {
			m := randSparse(24, 0.3, int64(100+minOverlap))
			p := Predictor{K: 4, MinOverlap: minOverlap, MaxIters: 3, Mode: mode}
			ref, _, err := p.WithReferenceKernel().Complete(m)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := p.Complete(m)
			if err != nil {
				t.Fatal(err)
			}
			mustEqualBits(t, fmt.Sprintf("minOverlap=%d mode=%d", minOverlap, mode), got, ref)
		}
	}
}

// TestFlatKernelMatchesReferenceOnCatalog runs both kernels over the
// paper's real penalty matrix at the operating-point sampling fractions.
func TestFlatKernelMatchesReferenceOnCatalog(t *testing.T) {
	dense := denseCatalogPenalties(t)
	for _, fraction := range []float64{0.1, 0.25, 0.75} {
		sparse := MaskPairs(dense, fraction, rand.New(rand.NewSource(int64(fraction*100))))
		for _, mode := range []Mode{ItemBased, UserBased} {
			p := Default()
			p.Mode = mode
			ref, _, err := p.WithReferenceKernel().Complete(sparse)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := p.Complete(sparse)
			if err != nil {
				t.Fatal(err)
			}
			mustEqualBits(t, fmt.Sprintf("catalog f=%.2f mode=%d", fraction, mode), got, ref)
		}
	}
}

// TestFlatKernelErrorParity pins the error cases to the reference's
// behaviour: ragged rows, all-unknown matrices, empty input, canceled
// contexts.
func TestFlatKernelErrorParity(t *testing.T) {
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
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := randSparse(10, 0.3, 7)
	if _, _, err := Default().CompleteContext(ctx, m); err == nil {
		t.Error("canceled context accepted")
	}
	if _, _, err := Default().WithReferenceKernel().CompleteContext(ctx, m); err == nil {
		t.Error("canceled context accepted by reference")
	}
}

// TestTopKTieBreakPrefersLowerColumn is the duplicated-column regression
// test for the principled tie-break: when two neighbor columns are
// exactly equally similar and K truncates between them, the lower column
// index wins — in both kernels, so neighbor choice is pinned by the
// comparator, not sort internals.
func TestTopKTieBreakPrefersLowerColumn(t *testing.T) {
	nan := math.NaN()
	// Columns 1 and 2 are duplicates on rows 1..3, so sim(3,1) and
	// sim(3,2) are computed from identical values and tie exactly. Row 0
	// rates them differently (0.2 vs 0.9) and cell (0,3) is the one
	// prediction; with K=1 the tie-break decides which rating is used.
	m := [][]float64{
		{0.10, 0.20, 0.90, nan},
		{0.50, 0.30, 0.30, 0.40},
		{0.10, 0.60, 0.60, 0.70},
		{0.80, 0.20, 0.20, 0.30},
	}
	p := Predictor{K: 1, MinOverlap: 2, MaxIters: 3}

	// Establish the premise: the similarities actually tie and are
	// positive, so the test exercises the tie-break rather than a
	// dominant neighbor.
	work := [][]float64{}
	for _, row := range m {
		work = append(work, append([]float64(nil), row...))
	}
	sim, err := p.itemSimilarities(context.Background(), work)
	if err != nil {
		t.Fatal(err)
	}
	if sim[3][1] != sim[3][2] || sim[3][1] <= 0 {
		t.Fatalf("premise broken: sim(3,1)=%v sim(3,2)=%v, want an exact positive tie",
			sim[3][1], sim[3][2])
	}

	// Winner is column 1 (the lower index), whose rating in row 0 is
	// 0.2: the prediction is the one-neighbor weighted mean
	// (s*0.2)/s. Had the higher column won, it would be (s*0.9)/s.
	s := sim[3][1]
	want := (s * m[0][1]) / s
	lose := (s * m[0][2]) / s
	if want == lose {
		t.Fatal("premise broken: both tie outcomes predict the same value")
	}
	for name, pred := range map[string]Predictor{"flat": p, "reference": p.WithReferenceKernel()} {
		filled, _, err := pred.Complete(m)
		if err != nil {
			t.Fatal(err)
		}
		if filled[0][3] != want {
			t.Errorf("%s kernel: predicted %v for cell (0,3), want %v (lower-column tie win)",
				name, filled[0][3], want)
		}
	}
}

// TestFlatKernelWorkerIndependenceRandom fans the flat kernel out at
// several worker counts over a larger random matrix and requires
// bit-identical output (run with -race to also prove the fan-out safe).
func TestFlatKernelWorkerIndependenceRandom(t *testing.T) {
	m := randSparse(80, 0.2, 42)
	p := Default()
	p.Workers = 1
	serial, iters1, err := p.Complete(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		pw := p
		pw.Workers = workers
		got, iters, err := pw.Complete(m)
		if err != nil {
			t.Fatal(err)
		}
		if iters != iters1 {
			t.Fatalf("workers=%d: %d iters vs serial %d", workers, iters, iters1)
		}
		mustEqualBits(t, fmt.Sprintf("workers=%d", workers), got, serial)
	}
}

// TestFlatKernelSimPairCounters checks the incremental invalidation
// bookkeeping: a fully observed matrix does no similarity work at all,
// and a multi-iteration fill records both recomputed and skipped pairs
// consistent with the number of passes.
func TestFlatKernelSimPairCounters(t *testing.T) {
	reg := telemetry.NewRegistry()
	p := Default()
	p.Metrics = reg
	m := randSparse(30, 0.25, 9)
	_, iters, err := p.Complete(m)
	if err != nil {
		t.Fatal(err)
	}
	if iters < 1 {
		t.Fatalf("expected at least one fill iteration, got %d", iters)
	}
	pairs := int64(30 * 29 / 2)
	rec := reg.Counter("predict.sim_pairs_recomputed").Value()
	skip := reg.Counter("predict.sim_pairs_skipped").Value()
	if rec+skip != pairs*int64(iters) {
		t.Errorf("recomputed %d + skipped %d != %d pairs x %d iters",
			rec, skip, pairs, iters)
	}
	if rec < pairs {
		t.Errorf("first pass must recompute all %d pairs, counted %d", pairs, rec)
	}

	// One iteration over three similarity tiles is the tiled first pass
	// alone: every pair recomputed, none skipped.
	reg = telemetry.NewRegistry()
	p = Predictor{MinOverlap: 2, MaxIters: 1, Metrics: reg}
	if _, _, err := p.Complete(randSparse(130, 0.25, 9)); err != nil {
		t.Fatal(err)
	}
	pairs = 130 * 129 / 2
	rec = reg.Counter("predict.sim_pairs_recomputed").Value()
	skip = reg.Counter("predict.sim_pairs_skipped").Value()
	if rec != pairs || skip != 0 {
		t.Errorf("MaxIters 1 at n=130: recomputed %d, skipped %d; want %d and 0", rec, skip, pairs)
	}
}

// mustMatchReference completes m with the reference kernel and with the
// flat kernel at each of the given worker counts (Workers 1 and 8 when
// none are given), and requires the same error outcome, iteration count
// and output bits.
func mustMatchReference(t *testing.T, label string, p Predictor, m [][]float64, workerCounts ...int) {
	t.Helper()
	if len(workerCounts) == 0 {
		workerCounts = []int{1, 8}
	}
	ref, refIters, refErr := p.WithReferenceKernel().Complete(m)
	for _, workers := range workerCounts {
		p.Workers = workers
		got, iters, err := p.Complete(m)
		if (err != nil) != (refErr != nil) {
			t.Fatalf("%s workers=%d: err %v vs reference %v", label, workers, err, refErr)
		}
		if err != nil {
			continue
		}
		if iters != refIters {
			t.Fatalf("%s workers=%d: %d iters vs reference %d", label, workers, iters, refIters)
		}
		mustEqualBits(t, fmt.Sprintf("%s workers=%d", label, workers), got, ref)
	}
}

// edgeMatrix is randSparse with the shapes the row-list fill has edges
// at: row 0 fully known, row 1 fully unknown, row 2 with one known cell,
// column 3 known in one row only (below any overlap threshold, so every
// similarity to it is zero and its cells can only fall back), and the
// values in special scattered over known cells.
func edgeMatrix(n int, density float64, seed int64, special []float64) [][]float64 {
	m := randSparse(n, density, seed)
	r := rand.New(rand.NewSource(seed))
	for j := range m[0] {
		m[0][j] = 0.05 * float64(r.Intn(16))
		m[1][j] = math.NaN()
		m[2][j] = math.NaN()
	}
	m[2][n/2] = 0.3
	for i := range m {
		m[i][3] = math.NaN()
	}
	m[n-1][3] = 0.4
	for i := range m {
		for j, v := range m[i] {
			if len(special) > 0 && !math.IsNaN(v) && r.Intn(9) == 0 {
				m[i][j] = special[r.Intn(len(special))]
			}
		}
	}
	return m
}

// TestFlatKernelMatchesReferenceEdges pins the four-column row-list fill
// where it has edges: sizes around the bitset word boundaries, so the
// unknown-column count of a row hits every residue mod 4 and row lists
// cross words; full, empty and single-cell rows; a column no similarity
// reaches; negative, signed-zero and denormal known values; 5% density,
// where the in-place fill runs three iterations and apply() twice between
// them; and infinite known values, whose rows must leave the branch-free
// loop (0 × Inf is NaN, not the exact zero a clamped similarity relies
// on). K > 0 rides along on the per-cell path.
func TestFlatKernelMatchesReferenceEdges(t *testing.T) {
	finite := []float64{-0.3, math.Copysign(0, -1), 5e-324, -2.5e-310, 0}
	nonFinite := []float64{math.Inf(1), math.Inf(-1), -0.3, 1e308, -1e308}
	seed := int64(500)
	for _, n := range []int{63, 64, 65, 127, 130, 257} {
		for _, density := range []float64{0.05, 0.25} {
			for _, kk := range []int{0, 3, 10} {
				for _, mode := range []Mode{ItemBased, UserBased} {
					if n == 257 && kk != 0 {
						continue // the largest size is for the row-list fill only
					}
					seed++
					p := Predictor{K: kk, MinOverlap: 2, MaxIters: 3, Mode: mode}
					label := fmt.Sprintf("n=%d density=%.2f K=%d mode=%d", n, density, kk, mode)
					mustMatchReference(t, label, p, edgeMatrix(n, density, seed, finite))
					if n <= 130 {
						mustMatchReference(t, label+" non-finite", p, edgeMatrix(n, density, seed, nonFinite))
					}
				}
			}
		}
	}
}

// TestFlatKernelInPlaceFillIterates checks the premise of the 5% legs
// above: sparse inputs really do take all three iterations, so in-place
// predictions are read back as known values after apply().
func TestFlatKernelInPlaceFillIterates(t *testing.T) {
	_, iters, err := Default().Complete(edgeMatrix(130, 0.05, 1, nil))
	if err != nil {
		t.Fatal(err)
	}
	if iters != 3 {
		t.Fatalf("5%% density filled in %d iterations, want 3", iters)
	}
}

// TestNaNSimilarityDoesNotVote pins the specification for a similarity
// that overflows to NaN (centered values near 1e200 square to Inf, and
// Inf/Inf is NaN): it is not strictly positive, so it does not vote — the
// reference skips it and the flat kernel stores it as zero. Cell (3, 0)
// has column 1 as its only possible neighbor, through exactly that
// similarity, so it can only fall back.
func TestNaNSimilarityDoesNotVote(t *testing.T) {
	nan := math.NaN()
	m := [][]float64{
		{1e200, -1e200, nan, 0.5},
		{-1e200, 1e200, 0.2, 0.1},
		{1e200, 1e200, 0.4, nan},
		{nan, 0.3, nan, nan},
	}
	p := Predictor{MinOverlap: 2, MaxIters: 3}
	sim, err := p.itemSimilarities(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(sim[0][1]) {
		t.Fatalf("sim[0][1] = %v, want NaN (the premise of this test)", sim[0][1])
	}
	if v, ok := p.predict(m, sim, 3, 0); ok {
		t.Fatalf("reference predicted %v for (3,0) through a NaN similarity", v)
	}
	k, err := newKernel(p, m)
	if err != nil {
		t.Fatal(err)
	}
	k.computeRowMeans()
	k.computeCentered()
	if err := k.similarityPass(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i, s := range k.sim {
		if !(s >= 0) {
			t.Fatalf("flat kernel stored similarity %v at %d, want clamped to >= 0", s, i)
		}
	}
	for _, kk := range []int{0, 3} {
		for _, mode := range []Mode{ItemBased, UserBased} {
			p.K, p.Mode = kk, mode
			mustMatchReference(t, fmt.Sprintf("K=%d mode=%d", kk, mode), p, m)
		}
	}
}

// TestNaNPredictionStaysUnknown pins the specification for a prediction
// that comes out NaN: row 0 knows +Inf and −Inf under two columns that are
// both positively similar to column 0, so the weighted sum is Inf − Inf.
// In the reference NaN is what unknown means, so the cell is retried every
// iteration and is finally left to the fallback; the flat kernel must not
// mark it filled either (same iteration count, same bits).
func TestNaNPredictionStaysUnknown(t *testing.T) {
	nan := math.NaN()
	m := [][]float64{
		{nan, math.Inf(1), math.Inf(-1), 0.5, 0.5},
		{0.8, 0.8, 0.8, 0.1, 0.1},
		{0.2, 0.2, 0.2, 0.9, 0.7},
		{0.6, 0.6, 0.6, 0.3, 0.2},
		{0.1, 0.1, 0.1, 0.5, 0.6},
	}
	p := Predictor{MinOverlap: 2, MaxIters: 3}
	sim, err := p.itemSimilarities(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	if !(sim[0][1] > 0 && sim[0][2] > 0) {
		t.Fatalf("sim[0][1], sim[0][2] = %v, %v, want both positive (the premise of this test)", sim[0][1], sim[0][2])
	}
	if v, ok := p.predict(m, sim, 0, 0); !ok || !math.IsNaN(v) {
		t.Fatalf("reference predict(0,0) = %v, %v, want NaN, true", v, ok)
	}
	for _, kk := range []int{0, 3} {
		p.K = kk
		mustMatchReference(t, fmt.Sprintf("K=%d", kk), p, m)
		_, iters, err := p.Complete(m)
		if err != nil {
			t.Fatal(err)
		}
		if iters != 3 {
			t.Fatalf("K=%d: %d iterations, want all 3 (the cell never fills)", kk, iters)
		}
	}
}

// tileMatrix is randSparse with shapes at the cache-blocked loops' edges:
// the first fill block of rows knows every cell of the first column tile,
// a row of the second block knows no cell of the second tile, and the
// next row holds an infinite value.
func tileMatrix(n int, density float64, seed int64) [][]float64 {
	m := randSparse(n, density, seed)
	for i := 0; i < min(n, fillBlock); i++ {
		for j := 0; j < min(n, simTile); j++ {
			if math.IsNaN(m[i][j]) {
				m[i][j] = 0.05 * float64((i+j)%16)
			}
		}
	}
	if r := fillBlock + 1; r+1 < n {
		for j := simTile; j < min(n, 2*simTile); j++ {
			m[r][j] = math.NaN()
		}
		m[r+1][n-1] = math.Inf(1)
	}
	return m
}

// TestFlatKernelMatchesReferenceTiles pins the cache-blocked loops where
// they have edges: sizes one below, at and one above the similarity tile
// (one bitset word), two tiles and a column, and three fill blocks and a
// short fourth; a block's rows fully known across a tile; a row with no
// known cell in one tile; an infinite value that sends one row of a block
// cell by cell while the rest take the four-column loop; and MinOverlap
// above and at zero, where the popcount overlap decides. Workers 3 splits
// tile pairs and blocks unevenly.
func TestFlatKernelMatchesReferenceTiles(t *testing.T) {
	seed := int64(900)
	for _, n := range []int{simTile - 1, simTile, simTile + 1, 3*fillBlock + 4, 2*simTile + 1} {
		for _, density := range []float64{0.05, 0.25} {
			for _, kk := range []int{0, 3} {
				for _, mode := range []Mode{ItemBased, UserBased} {
					for _, minOverlap := range []int{0, 4} {
						seed++
						p := Predictor{K: kk, MinOverlap: minOverlap, MaxIters: 3, Mode: mode}
						label := fmt.Sprintf("n=%d density=%.2f K=%d mode=%d minOverlap=%d", n, density, kk, mode, minOverlap)
						mustMatchReference(t, label, p, tileMatrix(n, density, seed), 1, 3, 8)
					}
				}
			}
		}
	}
}
