package recommend

import (
	"math"
	"testing"
)

// TestKnownBitsets checks the kernel's one-pass flatten: values land
// row-major, bit j of row i's bitset is set iff cell (i, j) is known,
// column bitsets mirror the row ones, and a ragged matrix is an error.
func TestKnownBitsets(t *testing.T) {
	nan := math.NaN()
	m := [][]float64{
		{1, nan, 3},
		{nan, nan, 6},
		{7, 8, nan},
	}
	k, err := newKernel(Predictor{}, m)
	if err != nil {
		t.Fatal(err)
	}
	if k.unknown != 4 {
		t.Fatalf("unknown = %d, want 4", k.unknown)
	}
	for i := range m {
		for j, v := range m[i] {
			if math.Float64bits(k.cur[i*3+j]) != math.Float64bits(v) {
				t.Fatalf("cell (%d,%d) not flattened row-major", i, j)
			}
			known := !math.IsNaN(v)
			if k.rowKnown[i*k.w:].get(j) != known || k.colKnown[j*k.w:].get(i) != known {
				t.Fatalf("bitsets wrong at (%d,%d)", i, j)
			}
		}
	}
	if _, err := newKernel(Predictor{}, [][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("ragged input accepted")
	}
}

// set marks bit i.
func (b bitset) set(i int) { b[i>>6] |= 1 << uint(i&63) }

// get reports whether bit i is set.
func (b bitset) get(i int) bool { return b[i>>6]&(1<<uint(i&63)) != 0 }

// any reports whether any bit is set.
func (b bitset) any() bool { return b.count() != 0 }

func TestBitsetOps(t *testing.T) {
	b := make(bitset, bitsetWords(130))
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
	clear(b)
	if b.any() {
		t.Fatal("clear left bits")
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
