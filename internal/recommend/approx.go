package recommend

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"

	"cooper/internal/parallel"
)

// This file is the approximate path of the flat kernel: a SimHash (sign
// random projection) banding scheme that picks which column pairs may
// vote in the fill.
//
// Each column's row-mean-centered values (the vectors the similarity pass
// scores) are projected onto Approx.Bits random hyperplanes; the sign
// bits form the column's signature. The signature splits into
// Approx.Bands bands, and two columns become *candidates* when at least
// one band's sub-signature collides — the classic LSH amplification:
// near-angular columns agree on whole bands with high probability,
// dissimilar ones almost never do. Scoring and filling are the exact
// kernel's own passes (similarityTiles, fillPass); between them
// maskCandidates zeroes every non-candidate similarity, so a
// non-candidate pair never votes, exactly as if the exact scorer had
// found it non-positive, and a candidate pair's similarity is the exact
// one bit for bit.
//
// The mask saves no work: every pair is still scored and the fill walks
// every known column, so the approximate path costs the exact kernel
// plus the candidate build and is never faster. It remains as the
// benchmark harness's second predict-complete leg and its accuracy gate
// (TopKRecall); DESIGN.md, "Approximate prediction", says why.
//
// Determinism: projection vectors derive from parallel.SplitSeed(Seed,
// bit), each parallel pass writes only its own slots, and bucket pairs
// are marked by commutative bit-OR — so the completed matrix is
// byte-identical at any worker count and across same-seed runs. The
// candidate set is rebuilt every pass from the then-current centered
// values: fill iterations densify the matrix, and the signatures follow
// it the way the exact scorer does.

// Default approximate-kernel geometry: 384 signature bits in 48 bands of
// 8 bits. Eight-bit bands keep buckets selective (256 keys per band, so
// unrelated columns collide on any band with probability 48/256 ≈ 19%)
// while 48 independent chances catch moderately similar columns; wider
// bands drop more pairs but lose the mid-similarity neighbors the n=400
// top-K recall gate (>=95%) is pinned at.
const (
	DefaultApproxBits  = 384
	DefaultApproxBands = 48
)

// Approx configures the LSH-bucketed approximate path of the flat
// prediction kernel. The zero value disables it: Complete then runs the
// exact kernel bit for bit. With Bits > 0 a column pair votes in the
// fill only if the two columns share at least one of their Bands
// signature bands (about a quarter of the pairs at the default
// geometry), which bounds top-K recall instead of guaranteeing exact
// equivalence.
type Approx struct {
	// Bits is the SimHash signature width — the number of random
	// hyperplanes each centered column is projected onto. Zero means
	// exact (no approximation); DefaultApproxBits is the tuned default.
	Bits int
	// Bands splits the signature into equal bands; columns sharing any
	// band's sub-signature become similarity candidates. Zero means
	// Bits/8 (8-bit bands, clamped to at least one). Bits must divide
	// evenly into Bands, with at most 64 bits per band.
	Bands int
	// Seed derives the projection hyperplanes via parallel.SplitSeed, so
	// the candidate structure is deterministic at any worker count. Zero
	// is a valid (and still deterministic) seed.
	Seed int64
}

// enabled reports whether the approximate path is configured at all.
func (a Approx) enabled() bool { return a.Bits > 0 }

// bands resolves the band count (zero means 8-bit bands).
func (a Approx) bands() int {
	if a.Bands > 0 {
		return a.Bands
	}
	b := a.Bits / 8
	if b < 1 {
		b = 1
	}
	return b
}

// validate rejects geometries the signature packing cannot represent.
func (a Approx) validate() error {
	if !a.enabled() {
		return nil
	}
	b := a.bands()
	if b > a.Bits {
		return fmt.Errorf("recommend: approx wants %d bands from %d signature bits", b, a.Bits)
	}
	if a.Bits%b != 0 {
		return fmt.Errorf("recommend: approx bits %d not divisible into %d bands", a.Bits, b)
	}
	if a.Bits/b > 64 {
		return fmt.Errorf("recommend: approx band width %d exceeds 64 bits", a.Bits/b)
	}
	return nil
}

// DefaultApprox returns the tuned approximate-kernel geometry
// (DefaultApproxBits signature bits in DefaultApproxBands bands).
func DefaultApprox() Approx {
	return Approx{Bits: DefaultApproxBits, Bands: DefaultApproxBands}
}

// buildCandidates computes every column's banded SimHash signature from
// the current centered values and marks candidate pairs in k.cand. It
// runs before every similarity pass, after the row means: as fill
// iterations densify the matrix the signatures follow, so the candidate
// set converges toward what the exact scorer considers similar on the
// same data.
func (k *kernel) buildCandidates(ctx context.Context) error {
	n, w := k.n, k.w
	a := k.p.Approx
	bands := a.bands()
	bandBits := a.Bits / bands

	// Projection hyperplanes, one per signature bit, each from its own
	// SplitSeed stream: workers own disjoint (strided) slots, so
	// generation is deterministic at any fan-out. The planes are stored
	// transposed — proj[i*Bits+b] is hyperplane b's coordinate for matrix
	// row i — so the signature pass below streams contiguously instead of
	// gathering with stride n. They are fixed per Complete call; only the
	// signatures change across passes.
	if k.proj == nil {
		k.proj = make([]float64, n*a.Bits)
		// One generator per worker of this fan-out (over Bits, not n — so
		// not len(k.scratch)), reseeded per plane.
		rngs := make([]*rand.Rand, min(parallel.Workers(k.p.Workers), a.Bits))
		for i := range rngs {
			rngs[i] = rand.New(rand.NewSource(0))
		}
		err := parallel.ForEachWorker(ctx, k.p.Workers, a.Bits, func(worker, b int) error {
			r := rngs[worker]
			r.Seed(parallel.SplitSeed(a.Seed, int64(b)))
			for i := 0; i < n; i++ {
				k.proj[i*a.Bits+b] = r.NormFloat64()
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	proj := k.proj

	// Banded signatures: keys[j*bands+t] is column j's band-t
	// sub-signature. The dot products run over the column's known rows
	// only — the same sparse support the exact scorer scans — gathered
	// once per column into the worker's scratch and centered on the row
	// mean as the scorer centers them, accumulating all Bits dots per
	// support row over the contiguous transposed plane row.
	if k.keys == nil {
		k.keys = make([]uint64, n*bands)
	} else {
		clear(k.keys)
	}
	keys := k.keys
	err := parallel.ForEachWorker(ctx, k.p.Workers, n, func(worker, j int) error {
		sc := &k.scratch[worker]
		ck := k.colKnown[j*w : (j+1)*w]
		cnt := 0
		for wi, mask := range ck {
			base := wi << 6
			for mask != 0 {
				i := base + bits.TrailingZeros64(mask)
				mask &= mask - 1
				sc.rows[cnt] = i
				sc.vals[cnt] = k.cur[i*n+j] - k.rowMean[i]
				cnt++
			}
		}
		dots := sc.dots
		clear(dots)
		for t := 0; t < cnt; t++ {
			v := sc.vals[t]
			row := proj[sc.rows[t]*a.Bits : (sc.rows[t]+1)*a.Bits]
			for b, p := range row {
				dots[b] += v * p
			}
		}
		for b, dot := range dots {
			if dot >= 0 {
				keys[j*bands+b/bandBits] |= 1 << uint(b%bandBits)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	// Bucket each band by a counting sort on the key's low bits (the whole
	// key at the usual band widths) and mark equal-key pairs as
	// candidates. Marking is commutative bit-OR and a band's pairs are
	// distinct, so neither the set nor the collision count (pairs already
	// marked by an earlier band) depends on the order within a bucket.
	if k.cand == nil {
		k.cand = make(bitset, n*w)
	} else {
		clear(k.cand)
	}
	slotMask := uint64(1)<<min(bandBits, 16) - 1
	start := make([]int32, slotMask+2)
	members := make([]int32, n) // columns grouped by slot, ascending within one
	for t := 0; t < bands; t++ {
		clear(start)
		for j := 0; j < n; j++ {
			start[keys[j*bands+t]&slotMask+1]++
		}
		for s := 1; s < len(start); s++ {
			start[s] += start[s-1]
		}
		for j := 0; j < n; j++ {
			slot := keys[j*bands+t] & slotMask
			members[start[slot]] = int32(j)
			start[slot]++
		}
		for x := 0; x < n; x++ {
			mx := int(members[x])
			key := keys[mx*bands+t]
			for y := x + 1; y < n; y++ {
				my := int(members[y])
				other := keys[my*bands+t]
				if other&slotMask != key&slotMask {
					break
				}
				if other != key {
					continue
				}
				if k.cand[mx*w+my>>6]&(1<<uint(my&63)) != 0 {
					k.bucketCollisions++
					continue
				}
				k.cand[mx*w+my>>6] |= 1 << uint(my&63)
				k.cand[my*w+mx>>6] |= 1 << uint(mx&63)
			}
		}
	}

	pairs := int64(k.cand.count() / 2)
	k.candScored += pairs
	k.candSkipped += int64(n)*int64(n-1)/2 - pairs
	return nil
}

// maskCandidates zeroes the similarity of every pair outside the
// candidate set. The fill then treats a non-candidate as it treats a
// non-positive exact score: the four-column loop adds its exact ±0 and
// the per-cell path skips it. A candidate keeps its exact similarity.
func (k *kernel) maskCandidates() {
	n, w := k.n, k.w
	for j := 0; j < n; j++ {
		srow, cand := k.sim[j*n:(j+1)*n], k.cand[j*w:(j+1)*w]
		for c := range srow {
			if c != j && cand[c>>6]>>uint(c&63)&1 == 0 {
				srow[c] = 0
			}
		}
	}
}
