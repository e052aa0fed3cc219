// Package recommend implements Cooper's preference predictor: item-based
// collaborative filtering over the sparse colocation-penalty matrix. Jobs
// are consumers, co-runners are products, and profiled penalties are
// ratings. A co-runner that degrades one job's performance will similarly
// degrade the performance of jobs with similar profiles, so unknown
// entries can be imputed from the similarity structure of the known ones.
//
// The paper uses the R recommenderlab library; this package is a from-
// scratch replacement with the same iterative behaviour — each iteration
// predicts the unknown ratings it can, and one to three iterations fill
// the matrix.
//
// Two kernels implement the fill. The production kernel (kernel.go) works
// on one flat array with known-entry bitsets and is blocked for the cache:
// every similarity pass runs row by row over pairs of 64-column tiles, and
// the fill runs in place over blocks of rows, one column word at a time,
// four cells per pass over a row's known cells, with per-worker scratch.
// The retained naive kernel (reference.go) is the bit-for-bit
// specification the equivalence suite and the fuzz target compare
// against.
package recommend

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"

	"cooper/internal/telemetry"
)

// minOverlap is the minimum number of co-rated rows for a pair of columns
// to be considered similar at all. A cell's prediction is the
// similarity-weighted mean over every known column of its row with
// positive similarity to the cell's column: the full neighborhood.
const minOverlap = 2

// Predictor configures the collaborative filter.
type Predictor struct {
	// MaxIters bounds the fill iterations before falling back to row and
	// global means for anything still unknown. Zero (and any negative
	// value) means the paper's 3 — the zero Predictor iterates, it does
	// not degenerate into a pure-fallback fill. Both kernels resolve the
	// bound through the single maxIters() helper, so the zero-value
	// semantics cannot drift between them.
	MaxIters int
	// Workers bounds the fan-out of each fill iteration's similarity and
	// prediction passes; <= 0 means GOMAXPROCS. The passes are pure
	// functions of the previous iteration's matrix, so results are
	// identical at any worker count.
	Workers int
	// Approx, when non-zero, runs the LSH-bucketed approximate path: a
	// column pair votes in the fill only if the two columns share at least
	// one SimHash band (see approx.go). The zero value reproduces the
	// exact flat kernel bit for bit. Approximate output satisfies a
	// bounded top-K recall guarantee (see the recall gate in
	// approx_test.go) rather than exact equivalence. Ignored by the
	// reference kernel, which exists as the exact executable
	// specification.
	Approx Approx
	// Metrics, when non-nil, receives the predictor's work counters
	// (predict.fill_iters, predict.cells_filled, predict.fallback_cells,
	// and on the flat kernel predict.sim_pairs_recomputed — the pairs
	// scored, summed over passes — plus predict.candidates_scored /
	// predict.candidates_skipped / predict.bucket_collisions on the
	// approximate path).
	Metrics *telemetry.Registry

	// reference routes Complete through the retained naive kernel.
	reference bool
}

// Default returns the configuration Cooper uses: the paper's
// one-to-three iterations.
func Default() Predictor {
	return Predictor{MaxIters: 3}
}

// WithReferenceKernel returns a copy of p that routes Complete through
// the retained naive [][]float64 kernel instead of the flat one. The two
// kernels produce bit-identical output; the reference exists as the
// baseline for the equivalence suite and BenchmarkCompleteReference,
// and is not part of the cooper facade.
func (p Predictor) WithReferenceKernel() Predictor {
	p.reference = true
	return p
}

// Complete fills the unknown (NaN) entries of the sparse penalty matrix m
// and returns a dense copy along with the number of iterations used.
// Known entries are preserved exactly. It returns an error if m is not
// square or contains no known entries at all.
func (p Predictor) Complete(m [][]float64) ([][]float64, int, error) {
	return p.CompleteContext(context.Background(), m)
}

// CompleteContext is Complete with a cancellation point between fill
// iterations and a parallel inner loop: each iteration's column
// similarities and row predictions fan out across p.Workers workers.
func (p Predictor) CompleteContext(ctx context.Context, m [][]float64) ([][]float64, int, error) {
	if p.reference {
		return p.completeReference(ctx, m)
	}
	return p.completeFlat(ctx, m)
}

// maxIters resolves the iteration bound: zero and negative mean the
// paper's 3. This is the only place the zero value is interpreted — both
// the flat and the reference kernel call it, so a zero MaxIters behaves
// identically on every path (pinned by TestMaxItersZeroValue).
func (p Predictor) maxIters() int {
	if p.MaxIters <= 0 {
		return 3
	}
	return p.MaxIters
}

// KernelName reports which kernel Complete routes through —
// "reference", "flat", or "approx(bits=B,bands=N)" — the tag core stamps
// on predict spans and epoch snapshots so dashboards and auditors know
// which kernel produced a matrix.
func (p Predictor) KernelName() string {
	switch {
	case p.reference:
		return "reference"
	case p.Approx.enabled():
		return fmt.Sprintf("approx(bits=%d,bands=%d)", p.Approx.Bits, p.Approx.bands())
	default:
		return "flat"
	}
}

// fallbackFill replaces entries no neighborhood could reach with the row
// mean, then the global mean, returning how many cells it filled. Shared
// by both kernels so the fallback arithmetic is identical bit for bit.
func fallbackFill(out [][]float64) int {
	if !hasNaN(out) {
		return 0
	}
	n := len(out)
	fallback := 0
	var globalSum float64
	var globalN int
	rowMean := make([]float64, n)
	rowHas := make([]bool, n)
	for i := range out {
		var sum float64
		var cnt int
		for _, v := range out[i] {
			if !math.IsNaN(v) {
				sum += v
				cnt++
				globalSum += v
				globalN++
			}
		}
		if cnt > 0 {
			rowMean[i] = sum / float64(cnt)
			rowHas[i] = true
		}
	}
	global := globalSum / float64(globalN)
	for i := range out {
		for j := range out[i] {
			if math.IsNaN(out[i][j]) {
				if rowHas[i] {
					out[i][j] = rowMean[i]
				} else {
					out[i][j] = global
				}
				fallback++
			}
		}
	}
	return fallback
}

func hasNaN(m [][]float64) bool {
	for _, row := range m {
		for _, v := range row {
			if math.IsNaN(v) {
				return true
			}
		}
	}
	return false
}

// PreferenceAccuracy computes the paper's Equation 2: the fraction of
// pairwise co-runner orderings the prediction gets right, averaged over
// all rows. For each row a and each pair of candidate co-runners (i, j),
// the prediction is wrong when the predicted relative order differs from
// the true one. Diagonal entries are excluded from the candidate set
// (an agent is never its own co-runner at the agent level; at the job
// level self-pairs are included as columns for other rows). Each row is
// counted by sorting, O(n log n); a row holding a NaN, which no order
// places, is counted pair by pair.
func PreferenceAccuracy(truth, pred [][]float64) (float64, error) {
	n := len(truth)
	if len(pred) != n {
		return 0, fmt.Errorf("recommend: matrix sizes differ: %d vs %d", n, len(pred))
	}
	for a := 0; a < n; a++ {
		if len(truth[a]) != n || len(pred[a]) != n {
			return 0, fmt.Errorf("recommend: row %d not square", a)
		}
	}
	// The pair count is closed-form: every row contributes the pairs over
	// its n-1 off-diagonal candidates.
	total := n * (n - 1) * (n - 2) / 2
	if total == 0 {
		return 1, nil
	}
	wrong := 0
	ps := make([]ranked, 0, n)
	buf := make([]ranked, 0, n)
	for a := 0; a < n; a++ {
		ps = ps[:0]
		ordered := true
		for i, t := range truth[a] {
			if i != a {
				p := pred[a][i]
				ps = append(ps, ranked{t, p})
				ordered = ordered && t == t && p == p
			}
		}
		if ordered {
			wrong += wrongPairs(ps, buf)
		} else {
			wrong += wrongPairsNaN(ps)
		}
	}
	return 1 - float64(wrong)/float64(total), nil
}

// ranked is one candidate co-runner of a row: its true and its predicted
// penalty.
type ranked struct{ t, p float64 }

// wrongPairs counts the pairs of ps that t and p order differently —
// opposite ways, or tied in exactly one of the two — by Knight's method:
// sort by (t, p), count the inversions of p with a merge sort, and take
// tied pairs from run lengths. It reorders ps; buf is the merge's scratch.
func wrongPairs(ps, buf []ranked) int {
	slices.SortFunc(ps, func(a, b ranked) int {
		if c := cmp.Compare(a.t, b.t); c != 0 {
			return c
		}
		return cmp.Compare(a.p, b.p)
	})
	tiedT := tiedPairs(ps, func(a, b ranked) bool { return a.t == b.t })
	tiedBoth := tiedPairs(ps, func(a, b ranked) bool { return a == b })
	opposite := sortByP(ps, buf)
	tiedP := tiedPairs(ps, func(a, b ranked) bool { return a.p == b.p })
	return opposite + (tiedT - tiedBoth) + (tiedP - tiedBoth)
}

// tiedPairs counts the pairs within each run of adjacent equal elements.
func tiedPairs(ps []ranked, same func(a, b ranked) bool) int {
	pairs, run := 0, 1
	for x := 1; x <= len(ps); x++ {
		if x < len(ps) && same(ps[x-1], ps[x]) {
			run++
			continue
		}
		pairs += run * (run - 1) / 2
		run = 1
	}
	return pairs
}

// sortByP merge-sorts ps by p, stably, and returns how many pairs stood
// in strictly descending p order.
func sortByP(ps, buf []ranked) int {
	if len(ps) < 2 {
		return 0
	}
	l, r := ps[:len(ps)/2], ps[len(ps)/2:]
	inv := sortByP(l, buf) + sortByP(r, buf)
	out := buf[:0]
	for len(l) > 0 && len(r) > 0 {
		if r[0].p < l[0].p {
			inv += len(l)
			out, r = append(out, r[0]), r[1:]
		} else {
			out, l = append(out, l[0]), l[1:]
		}
	}
	out = append(append(out, l...), r...)
	copy(ps, out)
	return inv
}

// wrongPairsNaN is wrongPairs pair by pair, for a row that holds a NaN: a
// difference involving one has no sign, which counts as a tie.
func wrongPairsNaN(ps []ranked) int {
	wrong := 0
	for i, a := range ps {
		for _, b := range ps[i+1:] {
			dt, dp := a.t-b.t, a.p-b.p
			if (dt > 0) != (dp > 0) || (dt < 0) != (dp < 0) {
				wrong++
			}
		}
	}
	return wrong
}
