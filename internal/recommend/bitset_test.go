package recommend

import (
	"math"
	"testing"
)

// TestKnownBitsets checks the kernel's one-pass flatten: values land in
// work orientation (transposed for user-based mode), bit j of row i's
// bitset is set iff cell (i, j) is known, column bitsets mirror the row
// ones, user-based mode swaps the two, and a ragged matrix is an error.
func TestKnownBitsets(t *testing.T) {
	nan := math.NaN()
	m := [][]float64{
		{1, nan, 3},
		{nan, nan, 6},
		{7, 8, nan},
	}
	item, err := newKernel(Predictor{}, m)
	if err != nil {
		t.Fatal(err)
	}
	user, err := newKernel(Predictor{Mode: UserBased}, m)
	if err != nil {
		t.Fatal(err)
	}
	if item.unknown != 4 || user.unknown != 4 {
		t.Fatalf("unknown = %d item-based, %d user-based, want 4", item.unknown, user.unknown)
	}
	for i := range m {
		for j, v := range m[i] {
			if math.Float64bits(item.cur[i*3+j]) != math.Float64bits(v) ||
				math.Float64bits(user.cur[j*3+i]) != math.Float64bits(v) {
				t.Fatalf("cell (%d,%d) not flattened into work orientation", i, j)
			}
			known := !math.IsNaN(v)
			if item.rowKnown[i*item.w:].get(j) != known || item.colKnown[j*item.w:].get(i) != known {
				t.Fatalf("item-based bitsets wrong at (%d,%d)", i, j)
			}
			if user.rowKnown[j*user.w:].get(i) != known || user.colKnown[i*user.w:].get(j) != known {
				t.Fatalf("user-based bitsets wrong at (%d,%d)", i, j)
			}
		}
	}
	if _, err := newKernel(Predictor{}, [][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("ragged input accepted")
	}
}

func TestBitsetOps(t *testing.T) {
	b := newBitset(130)
	if b.any() || b.count() != 0 {
		t.Fatal("fresh bitset not empty")
	}
	for _, i := range []int{0, 63, 64, 129} {
		b.set(i)
		if !b.get(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	if b.count() != 4 || !b.any() {
		t.Fatalf("count = %d", b.count())
	}
	if b.get(1) || b.get(128) {
		t.Fatal("unset bits read as set")
	}
	b.reset()
	if b.any() {
		t.Fatal("reset left bits")
	}

	x, y, z := newBitset(128), newBitset(128), newBitset(128)
	x.set(70)
	y.set(70)
	if intersects3(x, y, z) {
		t.Fatal("empty third set should not intersect")
	}
	z.set(70)
	if !intersects3(x, y, z) {
		t.Fatal("common bit 70 not found")
	}
	z.reset()
	z.set(71)
	if intersects3(x, y, z) {
		t.Fatal("disjoint bits reported intersecting")
	}
}

func TestTailMask(t *testing.T) {
	if tailMask(64) != ^uint64(0) || tailMask(128) != ^uint64(0) {
		t.Fatal("full words need a full mask")
	}
	if tailMask(1) != 1 {
		t.Fatalf("tailMask(1) = %#x", tailMask(1))
	}
	if tailMask(65) != 1 {
		t.Fatalf("tailMask(65) = %#x", tailMask(65))
	}
	if tailMask(3) != 0b111 {
		t.Fatalf("tailMask(3) = %#x", tailMask(3))
	}
}
