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
// densities 5–90% and several matrix sizes, the flat kernel's output must
// match the retained reference kernel bit for bit, at Workers 1 and 8
// alike.
func TestFlatKernelMatchesReference(t *testing.T) {
	sizes := []int{1, 2, 5, 8, 17, 33, 64, 65}
	densities := []float64{0.05, 0.25, 0.5, 0.9}
	seed := int64(1)
	for _, n := range sizes {
		for _, density := range densities {
			seed++
			label := fmt.Sprintf("n=%d density=%.2f", n, density)
			mustMatchReference(t, label, Default(), randSparse(n, density, seed))
		}
	}
}

// TestFlatKernelMatchesReferenceMinOverlap pins the overlap threshold in
// both kernels: a column pair co-rated in one row gets no similarity even
// where that row's centered values agree in sign, and a pair co-rated in
// three rows with a positive dot product does. Random matrices whose
// pairs often share only one or two rows then match bit for bit.
func TestFlatKernelMatchesReferenceMinOverlap(t *testing.T) {
	nan := math.NaN()
	// Columns 1 and 2 share only row 1, where both sit above the row
	// mean; columns 0 and 1 share rows 0–2.
	m := [][]float64{
		{0.1, 0.2, nan, 0.6},
		{0.5, 0.6, 0.9, 0.1},
		{0.3, 0.5, nan, 0.7},
		{nan, nan, 0.4, 0.2},
	}
	p := Default()
	sim, err := p.itemSimilarities(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	k, err := newKernel(p, m)
	if err != nil {
		t.Fatal(err)
	}
	k.computeRowMeans()
	if err := k.similarityTiles(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		j, c     int
		positive bool
	}{{1, 2, false}, {0, 1, true}} {
		if got := sim[c.j][c.c] > 0; got != c.positive {
			t.Errorf("reference sim(%d,%d) = %v, want positive %v", c.j, c.c, sim[c.j][c.c], c.positive)
		}
		if flat := k.sim[c.j*k.n+c.c]; math.Float64bits(flat) != math.Float64bits(max(sim[c.j][c.c], 0)) {
			t.Errorf("flat sim(%d,%d) = %v, reference %v", c.j, c.c, flat, sim[c.j][c.c])
		}
	}
	for seed := int64(100); seed < 104; seed++ {
		mustMatchReference(t, fmt.Sprintf("seed=%d", seed), p, randSparse(24, 0.3, seed))
	}
}

// TestFlatKernelMatchesReferenceOnCatalog runs both kernels over the
// paper's real penalty matrix at the operating-point sampling fractions.
func TestFlatKernelMatchesReferenceOnCatalog(t *testing.T) {
	dense := denseCatalogPenalties(t)
	for _, fraction := range []float64{0.1, 0.25, 0.75} {
		sparse := MaskPairs(dense, fraction, rand.New(rand.NewSource(int64(fraction*100))))
		mustMatchReference(t, fmt.Sprintf("catalog f=%.2f", fraction), Default(), sparse)
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

// TestFlatKernelSimPairCounters checks the similarity pair counter:
// every pair is scored on every pass, on the approximate path too, whose
// candidate mask drops votes, not scoring.
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
	if rec != pairs*int64(iters) {
		t.Errorf("recomputed %d != %d pairs x %d iters", rec, pairs, iters)
	}

	// One iteration over three similarity tiles: every pair once.
	reg = telemetry.NewRegistry()
	p = Predictor{MaxIters: 1, Metrics: reg}
	if _, _, err := p.Complete(randSparse(130, 0.25, 9)); err != nil {
		t.Fatal(err)
	}
	pairs = 130 * 129 / 2
	rec = reg.Counter("predict.sim_pairs_recomputed").Value()
	if rec != pairs {
		t.Errorf("MaxIters 1 at n=130: recomputed %d, want %d", rec, pairs)
	}

	// The approximate path over a multi-iteration input.
	reg = telemetry.NewRegistry()
	p = Predictor{Approx: DefaultApprox(), Metrics: reg}
	if _, iters, err = p.Complete(randSparse(130, 0.05, 9)); err != nil {
		t.Fatal(err)
	}
	if iters < 2 {
		t.Fatalf("approx at 5%% known: %d iterations, want at least 2", iters)
	}
	rec = reg.Counter("predict.sim_pairs_recomputed").Value()
	if rec != pairs*int64(iters) {
		t.Errorf("approx: recomputed %d != %d pairs x %d iters", rec, pairs, iters)
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
// on) for the per-cell path.
func TestFlatKernelMatchesReferenceEdges(t *testing.T) {
	finite := []float64{-0.3, math.Copysign(0, -1), 5e-324, -2.5e-310, 0}
	nonFinite := []float64{math.Inf(1), math.Inf(-1), -0.3, 1e308, -1e308}
	seed := int64(500)
	for _, n := range []int{63, 64, 65, 127, 130, 257} {
		for _, density := range []float64{0.05, 0.25} {
			seed++
			label := fmt.Sprintf("n=%d density=%.2f", n, density)
			mustMatchReference(t, label, Default(), edgeMatrix(n, density, seed, finite))
			if n <= 130 {
				mustMatchReference(t, label+" non-finite", Default(), edgeMatrix(n, density, seed, nonFinite))
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
	p := Default()
	sim, err := p.itemSimilarities(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(sim[0][1]) {
		t.Fatalf("sim[0][1] = %v, want NaN (the premise of this test)", sim[0][1])
	}
	if v, ok := predict(m, sim, 3, 0); ok {
		t.Fatalf("reference predicted %v for (3,0) through a NaN similarity", v)
	}
	k, err := newKernel(p, m)
	if err != nil {
		t.Fatal(err)
	}
	k.computeRowMeans()
	if err := k.similarityTiles(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i, s := range k.sim {
		if !(s >= 0) {
			t.Fatalf("flat kernel stored similarity %v at %d, want clamped to >= 0", s, i)
		}
	}
	mustMatchReference(t, "NaN similarity", p, m)
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
	p := Default()
	sim, err := p.itemSimilarities(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	if !(sim[0][1] > 0 && sim[0][2] > 0) {
		t.Fatalf("sim[0][1], sim[0][2] = %v, %v, want both positive (the premise of this test)", sim[0][1], sim[0][2])
	}
	if v, ok := predict(m, sim, 0, 0); !ok || !math.IsNaN(v) {
		t.Fatalf("reference predict(0,0) = %v, %v, want NaN, true", v, ok)
	}
	mustMatchReference(t, "NaN prediction", p, m)
	_, iters, err := p.Complete(m)
	if err != nil {
		t.Fatal(err)
	}
	if iters != 3 {
		t.Fatalf("%d iterations, want all 3 (the cell never fills)", iters)
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
// known cell in one tile; and an infinite value that sends one row of a
// block cell by cell while the rest take the four-column loop. Workers 3
// splits tile pairs and blocks unevenly.
func TestFlatKernelMatchesReferenceTiles(t *testing.T) {
	seed := int64(900)
	for _, n := range []int{simTile - 1, simTile, simTile + 1, 3*fillBlock + 4, 2*simTile + 1} {
		for _, density := range []float64{0.05, 0.25} {
			seed++
			label := fmt.Sprintf("n=%d density=%.2f", n, density)
			mustMatchReference(t, label, Default(), tileMatrix(n, density, seed), 1, 3, 8)
		}
	}
}
