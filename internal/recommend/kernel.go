package recommend

import (
	"context"
	"fmt"
	"math"
	"math/bits"

	"cooper/internal/parallel"
)

// This file is the production prediction kernel. It differs from the
// retained reference kernel (reference.go) only in representation and
// work avoidance, never in arithmetic:
//
//   - The matrix lives in one flat row-major []float64.
//   - Known entries are tracked by per-row and per-column uint64 bitsets,
//     so no inner loop tests a cell for NaN.
//   - Every fill iteration's similarity pass scores every column pair,
//     driven by rows and blocked for the cache (similarityTiles): columns
//     go in tiles of one bitset word, and for each tile pair every row
//     adds its term to all pairs of its known cells in the two tiles, held
//     in per-worker accumulators. Each pair still sums over ascending
//     rows. No pair is kept from the previous pass: a fill adds cells to
//     nearly every row, so nearly every row mean, and with it every pair's
//     centered overlap, moves between passes.
//   - Similarities are clamped when stored (positive, else +0 — NaN
//     included), so the fill never tests one. The fill takes blocks of
//     rows: it pops each row's known columns once into an
//     ascending list, then walks the block's unknown cells one column word
//     at a time, four columns at a time: one loop over a row list feeds
//     eight independent accumulators from four similarity rows, so the
//     pass runs at instruction throughput rather than one floating-point
//     add latency per visit, and a word's similarity rows stay cached for
//     the whole block. A zero similarity contributes an exact ±0, and each
//     cell still sums over ascending known columns.
//   - The fill writes predictions in place: a prediction reads only its
//     row's known cells and the similarity matrix, and a filled cell
//     becomes known only in apply, after the pass.
//
// Every accumulation visits the same values in the same order as the
// reference kernel, so the output is bit-identical at any worker count.
// The approximate path (approx.go) runs these same passes. It only
// builds an LSH candidate set before the similarity pass and zeroes the
// similarity of every pair outside that set before the fill.

// Cache-blocking constants of the kernel. simTile is the column
// tile of the similarity pass: one rowKnown word, so a row's cells
// in a tile are one word's set bits. fillBlock is the row block of the
// fill: while a block walks one column word's unknown cells, the
// similarity rows of that word stay cache-resident across the block. It
// is at most 64, so one word flags a block's rows.
const (
	simTile   = 64
	fillBlock = 32
)

// tileList is one row's known cells inside one column tile, ascending:
// offsets into the tile and centered values.
type tileList struct {
	n   int
	idx [simTile]int
	val [simTile]float64
}

// pop fills l from a row's known-cell word, centering vals (the row's
// cells from the tile's first column on) on the row mean.
func (l *tileList) pop(word uint64, vals []float64, mean float64) {
	l.n = 0
	for ; word != 0; word &= word - 1 {
		x := bits.TrailingZeros64(word)
		l.idx[l.n], l.val[l.n] = x, vals[x]-mean
		l.n++
	}
}

// pairAcc is one column pair's running adjusted-cosine sums.
type pairAcc struct{ dot, nj, nc float64 }

// predictScratch is one worker's private buffers for the similarity and
// prediction passes. Contents are fully overwritten per tile pair, row or
// cell, so results never depend on which worker ran an item.
type predictScratch struct {
	acc    []pairAcc // similarity pass: a tile pair's sums, min(n, simTile)² row-major, then a junk row
	ta, tb tileList  // similarity pass: the current row in the pair's two tiles
	kcol   []int32   // fill: the block's rows' known columns, ascending, back to back
	rowEnd []int     // fill: where each block row's columns end in kcol
	ucol   []int32   // fill: a row's unknown columns in one word, ascending
	rows   []int     // approx only: a column's known rows, ascending
	vals   []float64 // approx only: their centered values, parallel to rows
	dots   []float64 // approx only: per-hyperplane dot accumulators
}

// kernel is the flat working state of one completeFlat call.
type kernel struct {
	p Predictor
	n int // matrix order
	w int // bitset words per row/column

	cur      []float64 // n*n row-major values, filled in place; unknown cells hold NaN
	rowKnown bitset    // n*w words: row i's known columns
	colKnown bitset    // n*w words: column j's known rows
	rowMean  []float64
	sim      []float64 // n*n similarities, each positive or +0
	filled   bitset    // n*w scratch: cells filled by the current pass
	unknown  int

	recomputed int64 // similarity pairs scored, over all passes

	// Approximate path (p.Approx.enabled()): cand marks each column's
	// LSH candidate neighbors for the current iteration, and every
	// non-candidate similarity is zeroed before the fill. The structure is
	// rebuilt each pass from the current centered values. See approx.go.
	approx                  bool
	cand                    bitset    // n*w words, symmetric, diagonal clear
	proj                    []float64 // Bits*n projection hyperplanes, seeded once
	keys                    []uint64  // n*bands banded signatures, reused per pass
	candScored, candSkipped int64
	bucketCollisions        int64

	scratch []predictScratch
}

// completeFlat is the flat-kernel CompleteContext implementation.
func (p Predictor) completeFlat(ctx context.Context, m [][]float64) ([][]float64, int, error) {
	if err := p.Approx.validate(); err != nil {
		return nil, 0, err
	}
	n := len(m)
	if n == 0 {
		return make([][]float64, 0), 0, nil
	}
	k, err := newKernel(p, m)
	if err != nil {
		return nil, 0, err
	}
	known := n*n - k.unknown
	if known == 0 {
		return nil, 0, fmt.Errorf("recommend: matrix has no known entries")
	}

	maxIters := p.maxIters()
	iters := 0
	for ; iters < maxIters && k.unknown > 0; iters++ {
		if err := ctx.Err(); err != nil {
			return nil, iters, fmt.Errorf("recommend: %w", err)
		}
		if err := k.iterate(ctx); err != nil {
			return nil, iters, err
		}
	}

	out := k.result()
	filled := (n*n - k.unknown) - known
	fallback := fallbackFill(out)
	if p.Metrics != nil {
		p.Metrics.Counter("predict.fill_iters").Add(int64(iters))
		p.Metrics.Counter("predict.cells_filled").Add(int64(filled))
		p.Metrics.Counter("predict.fallback_cells").Add(int64(fallback))
		p.Metrics.Counter("predict.sim_pairs_recomputed").Add(k.recomputed)
		if k.approx {
			p.Metrics.Counter("predict.candidates_scored").Add(k.candScored)
			p.Metrics.Counter("predict.candidates_skipped").Add(k.candSkipped)
			p.Metrics.Counter("predict.bucket_collisions").Add(k.bucketCollisions)
		}
	}
	return out, iters, nil
}

// newKernel validates m and builds the kernel's state: one pass over the
// input flattens it and sets the known bitsets.
func newKernel(p Predictor, m [][]float64) (*kernel, error) {
	n := len(m)
	w := bitsetWords(n)
	k := &kernel{
		p: p, n: n, w: w,
		cur:      make([]float64, n*n),
		rowKnown: make(bitset, n*w),
		colKnown: make(bitset, n*w),
		rowMean:  make([]float64, n),
		sim:      make([]float64, n*n),
		filled:   make(bitset, n*w),
		approx:   p.Approx.enabled(),
	}
	k.unknown = n * n
	for i, row := range m {
		if len(row) != n {
			return nil, fmt.Errorf("recommend: row %d has %d entries, want %d", i, len(row), n)
		}
		copy(k.cur[i*n:], row)
		for j, v := range row {
			if v == v {
				k.rowKnown[i*w+j>>6] |= 1 << uint(j&63)
				k.colKnown[j*w+i>>6] |= 1 << uint(i&63)
				k.unknown--
			}
		}
	}
	for j := 0; j < n; j++ {
		k.sim[j*n+j] = 1
	}

	k.scratch = make([]predictScratch, min(parallel.Workers(p.Workers), n))
	tw := min(n, simTile)
	for i := range k.scratch {
		k.scratch[i] = predictScratch{
			acc:    make([]pairAcc, (tw+1)*tw),
			kcol:   make([]int32, min(n, fillBlock)*n),
			rowEnd: make([]int, fillBlock),
			ucol:   make([]int32, 64+3),
		}
		if k.approx {
			sc := &k.scratch[i]
			sc.rows, sc.vals, sc.dots = make([]int, n), make([]float64, n), make([]float64, p.Approx.Bits)
		}
	}
	return k, nil
}

// iterate runs one fill iteration: fresh row means, the similarity pass,
// the prediction pass, and the state update that makes the predictions
// known. The approximate path adds two steps around the similarity pass:
// it builds the LSH candidate set first and zeroes every non-candidate
// similarity after, so the fill sees non-candidates as the exact kernel
// sees non-positive pairs.
func (k *kernel) iterate(ctx context.Context) error {
	k.computeRowMeans()
	if k.approx {
		if err := k.buildCandidates(ctx); err != nil {
			return err
		}
	}
	if err := k.similarityTiles(ctx); err != nil {
		return err
	}
	if k.approx {
		k.maskCandidates()
	}
	if err := k.fillPass(ctx); err != nil {
		return err
	}
	k.apply()
	return nil
}

// computeRowMeans recomputes every row mean from scratch, accumulating
// known entries in ascending column order — the reference kernel's
// summation order, which an incrementally maintained sum would not
// reproduce bit for bit.
func (k *kernel) computeRowMeans() {
	n, w := k.n, k.w
	for i := 0; i < n; i++ {
		row := k.cur[i*n : (i+1)*n]
		rk := k.rowKnown[i*w : (i+1)*w]
		var sum float64
		cnt := 0
		for wi, mask := range rk {
			base := wi << 6
			for mask != 0 {
				sum += row[base+bits.TrailingZeros64(mask)]
				mask &= mask - 1
				cnt++
			}
		}
		if cnt > 0 {
			k.rowMean[i] = sum / float64(cnt)
		} else {
			k.rowMean[i] = 0
		}
	}
}

// similarityTiles is the kernel's similarity pass over every column
// pair, driven by rows instead of by pairs. Columns go in simTile-wide
// tiles, and a work item is a tile pair (J ≤ C): for each row in
// ascending order it pops the row's two tile words once into
// centered-value lists and adds the row's term to every pair of listed
// columns in per-worker accumulators. That is the reference's
// multiply-add sequence per pair — ascending rows, the same centered
// values — without a per-pair scan. Overlap counts come from popcounts
// of the ANDed column words. A tile pair's worker owns sim[j][c] and
// sim[c][j] for its pairs, so the fan-out is race-free.
func (k *kernel) similarityTiles(ctx context.Context) error {
	n, w := k.n, k.w
	tw := min(n, simTile)
	err := parallel.ForEachWorker(ctx, k.p.Workers, w*(w+1)/2, func(worker, item int) error {
		sc := &k.scratch[worker]
		tj, tc := 0, item
		for tc >= w-tj {
			tc -= w - tj
			tj++
		}
		tc += tj
		diag := tj == tc
		j0, c0 := tj*simTile, tc*simTile
		acc := sc.acc
		clear(acc)
		ta, tb := &sc.ta, &sc.tb
		if diag {
			tb = ta
		}
		for i := 0; i < n; i++ {
			a, c := k.rowKnown[i*w+tj], k.rowKnown[i*w+tc]
			if a == 0 || c == 0 {
				continue
			}
			row := k.cur[i*n : (i+1)*n]
			ta.pop(a, row[j0:], k.rowMean[i])
			if !diag {
				tb.pop(c, row[c0:], k.rowMean[i])
			}
			bidx, bval := tb.idx[:tb.n], tb.val[:tb.n]
			// Two listed columns of tile tj per pass over tile tc's list:
			// half the loop exits, and each load feeds two accumulators. An
			// odd list's last column is paired with a zero whose sums land
			// in the junk row.
			for x := 0; x < ta.n; x += 2 {
				va, vx := ta.val[x], 0.0
				pa, px := acc[ta.idx[x]*tw:][:tw], acc[tw*tw:]
				if x+1 < ta.n {
					vx, px = ta.val[x+1], acc[ta.idx[x+1]*tw:][:tw]
				}
				qa, qx := va*va, vx*vx
				y := 0
				if diag {
					if y = x + 1; y < len(bval) {
						p := &pa[bidx[y]]
						p.dot, p.nj, p.nc = p.dot+va*vx, p.nj+qa, p.nc+qx
						y++
					}
				}
				for ; y < len(bval); y++ {
					c, vb := bidx[y], bval[y]
					qb := vb * vb
					p, q := &pa[c], &px[c]
					p.dot, p.nj, p.nc = p.dot+va*vb, p.nj+qa, p.nc+qb
					q.dot, q.nj, q.nc = q.dot+vx*vb, q.nj+qx, q.nc+qb
				}
			}
		}
		for x := 0; x < min(simTile, n-j0); x++ {
			j := j0 + x
			kj := k.colKnown[j*w : (j+1)*w]
			y := 0
			if diag {
				y = x + 1
			}
			for ; y < min(simTile, n-c0); y++ {
				c := c0 + y
				overlap := 0
				for wi, word := range k.colKnown[c*w : (c+1)*w] {
					overlap += bits.OnesCount64(word & kj[wi])
				}
				p := acc[x*tw+y]
				k.storeSim(j, c, overlap, p.dot, p.nj, p.nc)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	k.recomputed += int64(n) * int64(n-1) / 2
	return nil
}

// storeSim stores pair (j, c)'s adjusted-cosine similarity in both
// triangles, clamped so the fill never tests one: only positive scores
// vote, and a NaN one is stored as +0 too.
func (k *kernel) storeSim(j, c, overlap int, dot, nj, nc float64) {
	var s float64
	if overlap >= minOverlap && nj != 0 && nc != 0 {
		if raw := dot / (math.Sqrt(nj) * math.Sqrt(nc)); raw > 0 {
			s = raw
		}
	}
	k.sim[j*k.n+c] = s
	k.sim[c*k.n+j] = s
}

// fillPass predicts every still-unknown cell in place, recording which
// cells produced a value. Work items are blocks of fillBlock rows: a
// block pops each row's known columns once into its row list, then walks
// the unknown cells one column word at a time, so the 64 similarity rows
// a word reads stay cache-resident across the whole block instead of
// being fetched again for every row. A row's cells read only its known
// cells and sim, and a block's worker writes only its rows' unknown cells
// and slices of filled (rowKnown does not change until apply), so the
// fan-out is race-free; the per-worker scratch makes the pass
// allocation-free.
func (k *kernel) fillPass(ctx context.Context) error {
	n, w := k.n, k.w
	clear(k.filled)
	tail := tailMask(n)
	blocks := (n + fillBlock - 1) / fillBlock
	return parallel.ForEachWorker(ctx, k.p.Workers, blocks, func(worker, b int) error {
		sc := &k.scratch[worker]
		i0, i1 := b*fillBlock, min((b+1)*fillBlock, n)
		// An infinite known value would turn a clamped similarity's exact
		// ±0 contribution into 0 × Inf = NaN: such rows go cell by cell.
		var cellwise uint64
		for i, nk := i0, 0; i < i1; i++ {
			finite := true
			for wi, known := range k.rowKnown[i*w : (i+1)*w] {
				for ; known != 0; known &= known - 1 {
					c := wi<<6 + bits.TrailingZeros64(known)
					sc.kcol[nk] = int32(c)
					finite = finite && !math.IsInf(k.cur[i*n+c], 0)
					nk++
				}
			}
			sc.rowEnd[i-i0] = nk
			if !finite {
				cellwise |= 1 << uint(i-i0)
			}
		}
		for wi := 0; wi < w; wi++ {
			for i, start := i0, 0; i < i1; i++ {
				kcol := sc.kcol[start:sc.rowEnd[i-i0]]
				start = sc.rowEnd[i-i0]
				missing := ^k.rowKnown[i*w+wi]
				if wi == w-1 {
					missing &= tail
				}
				nu := 0
				for ; missing != 0; missing &= missing - 1 {
					sc.ucol[nu] = int32(wi<<6 + bits.TrailingZeros64(missing))
					nu++
				}
				if cellwise>>uint(i-i0)&1 == 0 {
					k.fillGroups(i, sc.ucol, nu, kcol)
					continue
				}
				for _, j := range sc.ucol[:nu] {
					num, den := k.predictCell(i, int(j))
					k.store(i, int(j), num, den)
				}
			}
		}
		return nil
	})
}

// fillGroups predicts row i's unknown columns ucol[:nu] from its known
// columns kcol, four columns at a time: one loop over the list feeds
// eight independent add chains instead of two. (i, j) unknown means j is
// not in the list, and every admitted similarity is strictly positive, so
// den != 0 exactly when the cell has a neighbor. A short last group
// repeats its last column, which ucol has room for.
func (k *kernel) fillGroups(i int, ucol []int32, nu int, kcol []int32) {
	n := k.n
	row := k.cur[i*n : (i+1)*n]
	for ; nu%4 != 0; nu++ {
		ucol[nu] = ucol[nu-1]
	}
	for g := 0; g < nu; g += 4 {
		j0, j1, j2, j3 := int(ucol[g]), int(ucol[g+1]), int(ucol[g+2]), int(ucol[g+3])
		s0, s1 := k.sim[j0*n:(j0+1)*n], k.sim[j1*n:(j1+1)*n]
		s2, s3 := k.sim[j2*n:(j2+1)*n], k.sim[j3*n:(j3+1)*n]
		var n0, n1, n2, n3, d0, d1, d2, d3 float64
		for _, c := range kcol {
			v := row[c]
			a0, a1, a2, a3 := s0[c], s1[c], s2[c], s3[c]
			n0, d0 = n0+a0*v, d0+a0
			n1, d1 = n1+a1*v, d1+a1
			n2, d2 = n2+a2*v, d2+a2
			n3, d3 = n3+a3*v, d3+a3
		}
		k.store(i, j0, n0, d0)
		k.store(i, j1, n1, d1)
		k.store(i, j2, n2, d2)
		k.store(i, j3, n3, d3)
	}
}

// store writes the prediction num/den into its cell and marks the cell
// filled, unless no neighbor voted (den is zero) or the quotient is NaN
// (Inf − Inf, 0 × Inf: non-finite or overflowing input), which leaves the
// cell unknown as it does in the reference kernel, where NaN is what
// unknown means.
func (k *kernel) store(i, j int, num, den float64) {
	if v := num / den; den != 0 && v == v {
		k.cur[i*k.n+j] = v
		k.filled[i*k.w+j>>6] |= 1 << uint(j&63)
	}
}

// predictCell estimates cell (i, j) from row i's known ratings of
// columns similar to j, matching the reference predict bit for bit: the
// same neighbors, accumulated in ascending column order. It is the
// fill's path for rows with infinite known values. Cell (i, j) must be
// unknown, so j is never among row i's known columns.
func (k *kernel) predictCell(i, j int) (num, den float64) {
	n, w := k.n, k.w
	row := k.cur[i*n : (i+1)*n]
	srow := k.sim[j*n : (j+1)*n]
	for wi, mask := range k.rowKnown[i*w : (i+1)*w] {
		base := wi << 6
		for ; mask != 0; mask &= mask - 1 {
			c := base + bits.TrailingZeros64(mask)
			if s := srow[c]; s > 0 {
				num += s * row[c]
				den += s
			}
		}
	}
	return num, den
}

// apply folds the pass's filled cells into the known bitsets.
func (k *kernel) apply() {
	n, w := k.n, k.w
	for i := 0; i < n; i++ {
		base := i * w
		for wi := 0; wi < w; wi++ {
			mask := k.filled[base+wi]
			k.rowKnown[base+wi] |= mask
			for ; mask != 0; mask &= mask - 1 {
				j := wi<<6 + bits.TrailingZeros64(mask)
				k.colKnown[j*w+i>>6] |= 1 << uint(i&63)
				k.unknown--
			}
		}
	}
}

// result hands out the completed matrix: rows sliced out of the
// kernel's own value array (the kernel is discarded after the call).
func (k *kernel) result() [][]float64 {
	n := k.n
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = k.cur[i*n : (i+1)*n]
	}
	return rows
}
