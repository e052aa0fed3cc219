package recommend

import "math/bits"

// bitset is a fixed-width set of row or column indices backed by uint64
// words. The prediction kernel keeps one per matrix row and column to
// mark known entries, so the similarity and prediction inner loops scan
// words and pop set bits instead of testing every cell for NaN.
type bitset []uint64

// bitsetWords returns the number of uint64 words needed for n bits.
func bitsetWords(n int) int { return (n + 63) / 64 }

// count returns the number of set bits.
func (b bitset) count() int {
	c := 0
	for _, w := range b {
		c += bits.OnesCount64(w)
	}
	return c
}

// tailMask returns the mask selecting the valid bits of the last word of
// an n-bit bitset (all ones when n is a multiple of 64).
func tailMask(n int) uint64 {
	if r := n & 63; r != 0 {
		return 1<<uint(r) - 1
	}
	return ^uint64(0)
}
