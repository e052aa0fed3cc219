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
//   - The matrix lives in one flat row-major []float64 in "work"
//     orientation: the flattened input itself for item-based mode, its
//     transpose — made once, not per iteration — for user-based mode.
//   - Known entries are tracked by per-row and per-column uint64 bitsets;
//     the O(n³) similarity inner loop is a word scan over the AND of two
//     column bitsets against precomputed row-mean-centered columns, with
//     no per-cell NaN test.
//   - The similarity matrix persists across fill iterations and is
//     recomputed incrementally: a pair (j, k) is recomputed only when a
//     column gained a known entry or the pair's overlap touches a row
//     whose mean changed; clean pairs keep their previous (identical)
//     value. predict.sim_pairs_recomputed / predict.sim_pairs_skipped
//     count the split.
//   - Similarities are clamped when stored (positive, else +0 — NaN
//     included), so the fill never tests one. With K = 0 the fill pops a
//     row's known cells once into an ascending (column, value) list and
//     takes its unknown columns four at a time: one loop over the list
//     feeds eight independent accumulators from four similarity rows, so
//     the pass runs at instruction throughput rather than one
//     floating-point add latency per visit. A zero similarity contributes
//     an exact ±0, and each cell still sums over ascending known columns.
//   - With K > 0 each cell collects its positive-similarity neighbors
//     into per-worker scratch and selects the top K by partial insertion,
//     ordered by similarity descending with ties toward the lower column
//     index — the exact order the reference kernel's sort produces.
//   - The fill writes predictions in place: a prediction reads only its
//     row's known cells and the similarity matrix, and a filled cell
//     becomes known only in apply, after the pass.
//
// Every accumulation visits the same values in the same order as the
// reference kernel, so the output is bit-identical for both modes, any
// K/MinOverlap, and any worker count.

// predictScratch is one worker's private buffers for the prediction
// pass. Contents are fully overwritten per row or per cell, so results
// never depend on which worker ran a row.
type predictScratch struct {
	kcol    []int32   // row list: the row's known columns, ascending
	kval    []float64 // row list: their values, parallel to kcol
	ucol    []int32   // the row's unknown columns, ascending
	cols    []int     // K > 0: a cell's candidate neighbor columns, ascending
	sims    []float64 // K > 0: candidate similarities, parallel to cols
	topCols []int     // top-K selection buffer, sorted
	topSims []float64
	dots    []float64 // approx only: per-hyperplane dot accumulators
	pos     bitset    // approx only: current column's positive-sim candidates
	pref    []int     // approx only: per-word popcount prefix ranks into psims
	psims   []float64 // approx only: packed positive similarities
}

// kernel is the flat working state of one completeFlat call, in work
// orientation (transposed for user-based mode).
type kernel struct {
	p Predictor
	n int // matrix order
	w int // bitset words per row/column

	cur      []float64 // n*n row-major values, filled in place; unknown cells hold NaN
	rowKnown bitset    // n*w words: row i's known columns
	colKnown bitset    // n*w words: column j's known rows
	rowMean  []float64
	centered []float64 // n*n column-major row-mean-centered values
	sim      []float64 // n*n similarities, each positive or +0, persisted across iters
	simFresh bool      // first full similarity pass done
	dirtyCol bitset    // columns that gained entries since last sim pass
	dirtyRow bitset    // rows that gained entries since last sim pass
	filled   bitset    // n*w scratch: cells filled by the current pass
	unknown  int

	recomputedBy, skippedBy []int64 // per-column pair counters (one owner each)
	recomputed, skipped     int64

	// Approximate path (p.Approx.enabled()): cand marks each column's
	// LSH candidate neighbors for the current iteration; non-candidates
	// are never scored and keep similarity zero. The structure is rebuilt
	// each similarity pass from the current centered values (candPrev
	// keeps the previous iteration's set so newly-promoted pairs are
	// scored even when the incremental invalidation would call them
	// clean). See approx.go.
	approx                  bool
	cand, candPrev          bitset    // n*w words each, symmetric, diagonal clear
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
		p.Metrics.Counter("predict.sim_pairs_skipped").Add(k.skipped)
		if k.approx {
			p.Metrics.Counter("predict.candidates_scored").Add(k.candScored)
			p.Metrics.Counter("predict.candidates_skipped").Add(k.candSkipped)
			p.Metrics.Counter("predict.bucket_collisions").Add(k.bucketCollisions)
		}
	}
	return out, iters, nil
}

// newKernel validates m and builds the kernel's state. One pass over the
// input flattens it into work orientation — user-based filtering is
// item-based filtering on the transpose, so that mode stores m transposed,
// once — and sets the known bitsets.
func newKernel(p Predictor, m [][]float64) (*kernel, error) {
	n := len(m)
	w := bitsetWords(n)
	k := &kernel{
		p: p, n: n, w: w,
		cur:      make([]float64, n*n),
		rowKnown: make(bitset, n*w),
		colKnown: make(bitset, n*w),
		rowMean:  make([]float64, n),
		centered: make([]float64, n*n),
		sim:      make([]float64, n*n),
		dirtyCol: newBitset(n),
		dirtyRow: newBitset(n),
		filled:   make(bitset, n*w),

		recomputedBy: make([]int64, n),
		skippedBy:    make([]int64, n),
		approx:       p.Approx.enabled(),
	}
	transposed := p.Mode == UserBased
	k.unknown = n * n
	for i, row := range m {
		if len(row) != n {
			return nil, fmt.Errorf("recommend: row %d has %d entries, want %d", i, len(row), n)
		}
		for j, v := range row {
			if transposed {
				k.cur[j*n+i] = v
			} else {
				k.cur[i*n+j] = v
			}
			if v == v {
				k.rowKnown[i*w+j>>6] |= 1 << uint(j&63)
				k.colKnown[j*w+i>>6] |= 1 << uint(i&63)
				k.unknown--
			}
		}
	}
	if transposed {
		k.rowKnown, k.colKnown = k.colKnown, k.rowKnown
	}
	for j := 0; j < n; j++ {
		k.sim[j*n+j] = 1
	}

	k.scratch = make([]predictScratch, min(parallel.Workers(p.Workers), n))
	topCap := min(max(p.K, 0), n)
	for i := range k.scratch {
		k.scratch[i] = predictScratch{
			kcol:    make([]int32, n),
			kval:    make([]float64, n),
			ucol:    make([]int32, n+3),
			cols:    make([]int, n),
			sims:    make([]float64, n),
			topCols: make([]int, topCap),
			topSims: make([]float64, topCap),
		}
		if k.approx {
			k.scratch[i].dots = make([]float64, p.Approx.Bits)
			k.scratch[i].pos = make(bitset, w)
			k.scratch[i].pref = make([]int, w)
			k.scratch[i].psims = make([]float64, n)
		}
	}
	return k, nil
}

// iterate runs one fill iteration: fresh row means and centered columns,
// the (incremental) similarity pass, the prediction pass, and the state
// update that makes the predictions known.
func (k *kernel) iterate(ctx context.Context) error {
	k.computeRowMeans()
	k.computeCentered()
	if err := k.similarityPass(ctx); err != nil {
		return err
	}
	fill := k.fillPass
	if k.approx {
		fill = k.fillPassTiled
	}
	if err := fill(ctx); err != nil {
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

// computeCentered refreshes the column-major centered values at every
// known cell. Unknown cells are never read (the similarity loop masks
// through the column bitsets), so they need no clearing.
func (k *kernel) computeCentered() {
	n, w := k.n, k.w
	for j := 0; j < n; j++ {
		col := k.centered[j*n : (j+1)*n]
		ck := k.colKnown[j*w : (j+1)*w]
		for wi, mask := range ck {
			base := wi << 6
			for mask != 0 {
				i := base + bits.TrailingZeros64(mask)
				mask &= mask - 1
				col[i] = k.cur[i*n+j] - k.rowMean[i]
			}
		}
	}
}

// similarityPass recomputes adjusted-cosine similarities between column
// pairs. The first pass computes every pair — or, on the approximate
// path, builds the LSH candidate structure and scores only candidate
// pairs; later passes recompute only pairs invalidated since — at least
// one column gained an entry, or the pair's overlap contains a row whose
// mean changed — and count the rest as skipped. Column j's worker owns
// sim[j][k] and sim[k][j] for k > j plus its own counter slots, so the
// fan-out is race-free and the result worker-count independent.
func (k *kernel) similarityPass(ctx context.Context) error {
	n, w := k.n, k.w
	full := !k.simFresh
	if k.approx {
		// Rebuild the candidate structure from the current centered
		// values: as fill iterations densify the matrix, signatures track
		// the same data the exact scorer would scan, so pairs that only
		// become similar after filling still get promoted to candidates.
		if err := k.buildCandidates(ctx); err != nil {
			return err
		}
	}
	minOverlap := k.p.MinOverlap
	err := parallel.ForEach(ctx, k.p.Workers, n, func(j int) error {
		var rec, skip int64
		kj := k.colKnown[j*w : (j+1)*w]
		cj := k.centered[j*n : (j+1)*n]
		dirtyJ := full || k.dirtyCol.get(j)
		score := func(c int) {
			kc := k.colKnown[c*w : (c+1)*w]
			if !dirtyJ && !k.dirtyCol.get(c) && !intersects3(kj, kc, k.dirtyRow) &&
				(!k.approx || k.candPrev[j*w+c>>6]&(1<<uint(c&63)) != 0) {
				// Clean pairs keep their previous value — unless the pair
				// was just promoted into the candidate set, in which case
				// no previous value exists and it must be scored.
				skip++
				return
			}
			rec++
			cc := k.centered[c*n : (c+1)*n]
			var dot, nj, nc float64
			overlap := 0
			for wi := 0; wi < w; wi++ {
				mask := kj[wi] & kc[wi]
				if mask == 0 {
					continue
				}
				overlap += bits.OnesCount64(mask)
				base := wi << 6
				for mask != 0 {
					i := base + bits.TrailingZeros64(mask)
					mask &= mask - 1
					a, b := cj[i], cc[i]
					dot += a * b
					nj += a * a
					nc += b * b
				}
			}
			// Clamped here so the fill never tests a similarity: only
			// positive scores vote, and a NaN one is stored as +0 too.
			var s float64
			if overlap >= minOverlap && nj != 0 && nc != 0 {
				if raw := dot / (math.Sqrt(nj) * math.Sqrt(nc)); raw > 0 {
					s = raw
				}
			}
			k.sim[j*n+c] = s
			k.sim[c*n+j] = s
		}
		if k.approx {
			// Only candidate pairs are ever scored; the rest stay at
			// similarity zero, exactly as a non-positive exact score would.
			candJ := k.cand[j*w : (j+1)*w]
			for wi := j >> 6; wi < w; wi++ {
				mask := candJ[wi]
				if wi == j>>6 {
					// Keep strictly-above-j bits of the first word (the
					// double shift sidesteps the 1<<64 overflow at j&63=63).
					mask &^= uint64(1)<<uint(j&63)<<1 - 1
				}
				base := wi << 6
				for mask != 0 {
					score(base + bits.TrailingZeros64(mask))
					mask &= mask - 1
				}
			}
		} else {
			for c := j + 1; c < n; c++ {
				score(c)
			}
		}
		k.recomputedBy[j] = rec
		k.skippedBy[j] = skip
		return nil
	})
	if err != nil {
		return err
	}
	for j := 0; j < n; j++ {
		k.recomputed += k.recomputedBy[j]
		k.skipped += k.skippedBy[j]
	}
	k.simFresh = true
	k.dirtyCol.reset()
	k.dirtyRow.reset()
	return nil
}

// fillPass predicts every still-unknown cell in place, recording which
// cells produced a value. Row i's worker reads only row i's known cells
// and sim, and writes only row i's unknown cells and its slice of filled
// (rowKnown does not change until apply), so the fan-out is race-free;
// the per-worker scratch makes the pass allocation-free.
func (k *kernel) fillPass(ctx context.Context) error {
	n, w := k.n, k.w
	k.filled.reset()
	tail := tailMask(n)
	return parallel.ForEachWorker(ctx, k.p.Workers, n, func(worker, i int) error {
		sc := &k.scratch[worker]
		row := k.cur[i*n : (i+1)*n]

		// Pop the row's bitset once into the row list and its complement.
		nk, nu := 0, 0
		finite := true
		for wi, known := range k.rowKnown[i*w : (i+1)*w] {
			missing := ^known
			if wi == w-1 {
				missing &= tail
			}
			base := int32(wi << 6)
			for ; known != 0; known &= known - 1 {
				c := base + int32(bits.TrailingZeros64(known))
				v := row[c]
				sc.kcol[nk], sc.kval[nk] = c, v
				nk++
				finite = finite && !math.IsInf(v, 0)
			}
			for ; missing != 0; missing &= missing - 1 {
				sc.ucol[nu] = base + int32(bits.TrailingZeros64(missing))
				nu++
			}
		}
		if k.p.K > 0 || !finite {
			// Top-K needs each cell's candidates side by side, and an
			// infinite known value would turn a clamped similarity's exact
			// ±0 contribution into 0 × Inf = NaN: both go cell by cell.
			for _, j := range sc.ucol[:nu] {
				num, den := k.predictCell(sc, i, int(j))
				k.store(i, int(j), num, den)
			}
			return nil
		}

		// Four unknown columns at a time over the row list: eight
		// independent add chains instead of two. (i, j) unknown means j is
		// not in the list, and every admitted similarity is strictly
		// positive, so den != 0 exactly when the cell has a neighbor. A
		// short last group repeats its last column.
		for ; nu%4 != 0; nu++ {
			sc.ucol[nu] = sc.ucol[nu-1]
		}
		kcol := sc.kcol[:nk]
		kval := sc.kval[:nk]
		for g := 0; g < nu; g += 4 {
			j0, j1, j2, j3 := int(sc.ucol[g]), int(sc.ucol[g+1]), int(sc.ucol[g+2]), int(sc.ucol[g+3])
			s0, s1 := k.sim[j0*n:(j0+1)*n], k.sim[j1*n:(j1+1)*n]
			s2, s3 := k.sim[j2*n:(j2+1)*n], k.sim[j3*n:(j3+1)*n]
			var n0, n1, n2, n3, d0, d1, d2, d3 float64
			for t, c := range kcol {
				v := kval[t]
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
		return nil
	})
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

// fillTile is the row-block size of the approximate path's tiled fill
// pass: cur's tile rows stay cache-resident while each sim row streams
// through the whole tile.
const fillTile = 64

// fillPassTiled is the approximate path's fill, in place like fillPass
// but with a blocked loop order. The candidate mask leaves so few
// neighbors per cell that the pass is bound by cache misses, not
// arithmetic: with rows outer, every cell faults in a fresh sim row.
// Iterating column-outer within a block of rows keeps sim's row j hot
// across the whole tile and the tile's cur rows resident, turning the
// gathers into cache hits. Each cell sees the candidates, order and
// arithmetic a per-cell scan would, and a worker owns its tile's rows, so
// writes stay disjoint and the result is byte-identical at any worker
// count.
func (k *kernel) fillPassTiled(ctx context.Context) error {
	n, w := k.n, k.w
	k.filled.reset()
	tiles := (n + fillTile - 1) / fillTile
	return parallel.ForEachWorker(ctx, k.p.Workers, tiles, func(worker, tile int) error {
		sc := &k.scratch[worker]
		i0 := tile * fillTile
		i1 := i0 + fillTile
		if i1 > n {
			i1 = n
		}
		for j := 0; j < n; j++ {
			// Distill column j once for the whole tile into a
			// positive-similarity bitset with per-word popcount prefix
			// ranks and a packed similarity array: each cell below scans
			// rowKnown AND positive and ranks its hits into psims, so the
			// inner loop never gathers from the 8n-byte sim row at all.
			// Non-candidates hold similarity zero and are excluded by the
			// same s > 0 test the exact path applies.
			srow := k.sim[j*n : (j+1)*n]
			candJ := k.cand[j*w : (j+1)*w]
			pos, pref, psims := sc.pos, sc.pref, sc.psims
			pcnt := 0
			for cwi, mask := range candJ {
				pref[cwi] = pcnt
				var pw uint64
				base := cwi << 6
				for mask != 0 {
					b := bits.TrailingZeros64(mask)
					mask &= mask - 1
					if s := srow[base+b]; s > 0 {
						pw |= uint64(1) << uint(b)
						psims[pcnt] = s
						pcnt++
					}
				}
				pos[cwi] = pw
			}
			if pcnt == 0 {
				continue
			}
			wi := j >> 6
			bit := uint64(1) << uint(j&63)
			for i := i0; i < i1; i++ {
				if k.rowKnown[i*w+wi]&bit != 0 {
					continue
				}
				num, den := k.predictCellRanked(sc, i)
				k.store(i, j, num, den)
			}
		}
		return nil
	})
}

// predictCellRanked is predictCell against the distilled column state in
// sc (pos/pref/psims, built by fillPassTiled): candidates are the set
// bits of rowKnown AND pos in ascending order with similarities ranked
// out of the packed array — the exact (column, similarity) sequence
// predictCell's per-cell scan produces. With K = 0 the weighted mean is
// accumulated while ranking; K > 0 spills the candidates for the top-K
// tail. The target column itself can never appear: the candidate
// bitset's diagonal is clear.
func (k *kernel) predictCellRanked(sc *predictScratch, i int) (num, den float64) {
	n, w := k.n, k.w
	row := k.cur[i*n : (i+1)*n]
	rk := k.rowKnown[i*w : (i+1)*w]
	topK := k.p.K > 0
	cand := 0
	for wi, pw := range sc.pos {
		mask := rk[wi] & pw
		if mask == 0 {
			continue
		}
		base := wi << 6
		rankBase := sc.pref[wi]
		for mask != 0 {
			b := bits.TrailingZeros64(mask)
			mask &= mask - 1
			s := sc.psims[rankBase+bits.OnesCount64(pw&(uint64(1)<<uint(b)-1))]
			if topK {
				sc.cols[cand] = base + b
				sc.sims[cand] = s
				cand++
			} else {
				num += s * row[base+b]
				den += s
			}
		}
	}
	if topK {
		return k.weightedMean(sc, row, cand)
	}
	return num, den
}

// predictCell estimates cell (i, j) from row i's known ratings of
// columns similar to j, matching the reference predict bit for bit: the
// same candidates in the same order, the same top-K ordering (similarity
// descending, ties toward the lower column), and the same weighted-sum
// accumulation order. It is the K > 0 path and the exact fill's path for
// rows with infinite known values. Cell (i, j) must be unknown, so j is
// never among row i's known columns. No allocation: all state lives in sc.
func (k *kernel) predictCell(sc *predictScratch, i, j int) (num, den float64) {
	n, w := k.n, k.w
	row := k.cur[i*n : (i+1)*n]
	srow := k.sim[j*n : (j+1)*n]
	cand := 0
	for wi, mask := range k.rowKnown[i*w : (i+1)*w] {
		base := wi << 6
		for ; mask != 0; mask &= mask - 1 {
			c := base + bits.TrailingZeros64(mask)
			if s := srow[c]; s > 0 {
				sc.cols[cand] = c
				sc.sims[cand] = s
				cand++
			}
		}
	}
	return k.weightedMean(sc, row, cand)
}

// weightedMean is the shared prediction tail: optional partial top-K
// selection over the collected candidates followed by the
// similarity-weighted mean, in the reference kernel's exact order.
func (k *kernel) weightedMean(sc *predictScratch, row []float64, cand int) (num, den float64) {
	if kk := k.p.K; kk > 0 && cand > kk {
		// Partial top-K selection: an insertion buffer holds the current
		// best kk candidates in final order, so only the winners are
		// sorted and the weighted sum runs in the reference's post-sort
		// order.
		topN := 0
		for t := 0; t < cand; t++ {
			s, c := sc.sims[t], sc.cols[t]
			if topN == kk {
				ls, lc := sc.topSims[kk-1], sc.topCols[kk-1]
				if s < ls || (s == ls && c > lc) {
					continue
				}
				topN--
			}
			pos := topN
			for pos > 0 {
				ps, pc := sc.topSims[pos-1], sc.topCols[pos-1]
				if s > ps || (s == ps && c < pc) {
					pos--
				} else {
					break
				}
			}
			copy(sc.topSims[pos+1:topN+1], sc.topSims[pos:topN])
			copy(sc.topCols[pos+1:topN+1], sc.topCols[pos:topN])
			sc.topSims[pos] = s
			sc.topCols[pos] = c
			topN++
		}
		for t := 0; t < topN; t++ {
			num += sc.topSims[t] * row[sc.topCols[t]]
			den += sc.topSims[t]
		}
	} else {
		// No truncation: the reference skips the sort and accumulates in
		// ascending column order — the candidates' natural order here.
		for t := 0; t < cand; t++ {
			num += sc.sims[t] * row[sc.cols[t]]
			den += sc.sims[t]
		}
	}
	return num, den
}

// apply folds the pass's filled cells into the known bitsets and marks
// the dirty rows/columns that drive the next incremental similarity pass.
func (k *kernel) apply() {
	n, w := k.n, k.w
	for i := 0; i < n; i++ {
		base := i * w
		rowDirty := false
		for wi := 0; wi < w; wi++ {
			mask := k.filled[base+wi]
			if mask == 0 {
				continue
			}
			rowDirty = true
			k.rowKnown[base+wi] |= mask
			wb := wi << 6
			for mask != 0 {
				j := wb + bits.TrailingZeros64(mask)
				mask &= mask - 1
				k.colKnown[j*w+i>>6] |= 1 << uint(i&63)
				k.dirtyCol.set(j)
				k.unknown--
			}
		}
		if rowDirty {
			k.dirtyRow.set(i)
		}
	}
}

// result hands out the completed matrix in the caller's (original)
// orientation: rows sliced out of one flat backing — the kernel's own
// value array for item-based mode (the kernel is discarded after the
// call), a fresh un-transposed one for user-based mode.
func (k *kernel) result() [][]float64 {
	n := k.n
	backing := k.cur
	if k.p.Mode == UserBased {
		backing = make([]float64, n*n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				backing[i*n+j] = k.cur[j*n+i]
			}
		}
	}
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = backing[i*n : (i+1)*n]
	}
	return rows
}
