package recommend

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"

	"cooper/internal/parallel"
)

// This file is the approximate similarity path of the flat kernel: a
// SimHash (sign random projection) banding scheme that replaces the
// all-pairs O(n²) similarity scan with bucketed candidate generation.
//
// Each column's row-mean-centered values (the vectors similarityScan
// scores candidates over) are projected onto Approx.Bits random
// hyperplanes; the sign bits form the column's signature. The signature
// splits into Approx.Bands bands, and two columns become similarity
// *candidates* when at least one band's sub-signature collides — the
// classic LSH amplification: near-angular columns agree on whole bands
// with high probability, dissimilar ones almost never do. Only candidate
// pairs are scored (by similarityScan's word scan, the exact adjusted
// cosine), and the prediction pass masks each cell's neighbor scan
// through the candidate bitset. Non-candidate pairs never vote, exactly
// as if the exact scorer had found them non-positive.
//
// What that buys is a constant, not an exponent: the mask removes the
// non-candidate share of both loops (73–83% of pairs at the default
// geometry), while the fill stays O(n² · known cells per row) and the
// scorer O(candidate pairs · overlap) — measured exponent in n ≈ 2.7
// between n = 500 and 2000 at 25% known, against the exact kernel's
// ≈ 3.2 (docs/pr24-predict-kernel.md). The cache-blocked exact kernel is
// faster on one-iteration inputs: ≈ 2× at n = 600, and at n = 2000,
// single worker, 2.8–3.8 s exact against 3.0–6.5 s approximate in the
// same runs (docs/pr30-predict-tiles.md). The pruning pays on the denser
// later passes of sparse inputs instead: at n = 600 with 5% of cells
// known, two iterations, single worker, approximate beat exact (median
// 221 ms against 249 ms); DESIGN.md, "Approximate prediction", records
// where the crossover lies.
//
// Determinism: projection vectors derive from parallel.SplitSeed(Seed,
// bit), each parallel pass writes only its own slots, and bucket pairs
// are marked by commutative bit-OR — so the completed matrix is
// byte-identical at any worker count and across same-seed runs. The
// candidate set is rebuilt every similarity pass from the then-current
// centered values (fill iterations densify the matrix, and the
// signatures must follow it the way the exact scorer does), and every
// candidate pair is scored afresh.

// Default approximate-kernel geometry: 384 signature bits in 48 bands of
// 8 bits. Eight-bit bands keep buckets selective (256 keys per band, so
// unrelated columns collide on any band with probability 48/256 ≈ 19%)
// while 48 independent chances catch moderately similar columns; wider
// bands prune harder but lose the mid-similarity neighbors the n=400
// top-K recall gate (>=95%) is pinned at, and more 8-bit bands buy
// recall that is already ~0.99 at the cost of the n=2000 speedup floor.
const (
	DefaultApproxBits  = 384
	DefaultApproxBands = 48
)

// Approx configures the LSH-bucketed approximate similarity path of the
// flat prediction kernel. The zero value disables it: Complete then runs
// the exact all-pairs kernel bit for bit. With Bits > 0 each column only
// scores candidates sharing at least one of its Bands signature bands —
// O(n·b) candidate generation in place of the all-pairs scan, which
// prunes a constant share of the scoring and fill work (about three
// quarters at the default geometry), at the price of a bounded top-K
// recall guarantee instead of exact equivalence.
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
// the current centered values and marks candidate pairs in k.cand — the
// O(n·bits·density + collisions) replacement for the O(n²) pair
// enumeration. It runs on every similarity pass, after computeCentered:
// as fill iterations densify the matrix the signatures follow, so the
// candidate set converges toward what the exact scorer would consider
// similar on the same data.
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
	// once per column into the worker's scratch, accumulating all Bits
	// dots per support row over the contiguous transposed plane row.
	if k.keys == nil {
		k.keys = make([]uint64, n*bands)
	} else {
		clear(k.keys)
	}
	keys := k.keys
	err := parallel.ForEachWorker(ctx, k.p.Workers, n, func(worker, j int) error {
		sc := &k.scratch[worker]
		ck := k.colKnown[j*w : (j+1)*w]
		cj := k.centered[j*n : (j+1)*n]
		cnt := 0
		for wi, mask := range ck {
			base := wi << 6
			for mask != 0 {
				i := base + bits.TrailingZeros64(mask)
				mask &= mask - 1
				sc.rows[cnt] = i
				sc.vals[cnt] = cj[i]
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
