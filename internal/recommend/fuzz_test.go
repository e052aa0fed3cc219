package recommend

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// fuzzCellBytes is one cell of FuzzFlatMatchesReference's input: a mask
// byte (odd means known) and the eight bytes of the value's bit pattern.
const fuzzCellBytes = 9

// fuzzMatrix decodes the fuzzer's bytes into an n×n matrix, row-major;
// cells the data does not reach, and known cells whose pattern is a NaN,
// are unknown.
func fuzzMatrix(n int, cells []byte) [][]float64 {
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
		for j := range m[i] {
			m[i][j] = math.NaN()
			if c := (i*n + j) * fuzzCellBytes; c+fuzzCellBytes <= len(cells) && cells[c]&1 == 1 {
				m[i][j] = math.Float64frombits(binary.LittleEndian.Uint64(cells[c+1:]))
			}
		}
	}
	return m
}

// fuzzCells is fuzzMatrix's inverse, for the seed corpus.
func fuzzCells(m [][]float64) []byte {
	var cells []byte
	for _, row := range m {
		for _, v := range row {
			known := byte(0)
			if !math.IsNaN(v) {
				known = 1
			}
			cells = binary.LittleEndian.AppendUint64(append(cells, known), math.Float64bits(v))
		}
	}
	return cells
}

// FuzzFlatMatchesReference holds the flat kernel to the reference on
// arbitrary small matrices — any float bit pattern, any known mask — at
// MaxIters 1 to 3 and Workers 1, 3 or 8: both fail, or both succeed with
// the same iteration count and the same bits. Sizes run past one fill block and
// one similarity tile. The seeds are the shapes
// TestFlatKernelMatchesReferenceEdges names, at fuzzing size, then the
// same shapes one past the block and the tile.
func FuzzFlatMatchesReference(f *testing.F) {
	specials := [][]float64{
		nil,
		{-0.3, math.Copysign(0, -1), 5e-324, -2.5e-310, 0},
		{math.Inf(1), math.Inf(-1), 1e308, -1e308, 1e-200},
	}
	for s, special := range specials {
		for _, n := range []int{5, 13, 24} {
			for _, density := range []float64{0.05, 0.3} {
				f.Add(uint8(n), uint8(7*s+n), fuzzCells(edgeMatrix(n, density, int64(n+s), special)))
			}
		}
	}
	f.Add(uint8(2), uint8(0), fuzzCells([][]float64{{math.NaN(), math.NaN()}, {math.NaN(), math.NaN()}}))
	for s, special := range specials[1:] {
		for _, n := range []int{fillBlock + 1, simTile + 1} {
			f.Add(uint8(n-1), uint8(7*s+n), fuzzCells(edgeMatrix(n, 0.3, int64(n+s), special)))
		}
	}
	f.Fuzz(func(t *testing.T, size, cfg uint8, cells []byte) {
		n := 1 + int(size)%(simTile+8)
		p := Predictor{MaxIters: 1 + int(cfg)%3}
		workers := []int{1, 3, 8}[int(cfg)/3%3]
		label := fmt.Sprintf("n=%d maxIters=%d", n, p.MaxIters)
		mustMatchReference(t, label, p, fuzzMatrix(n, cells), workers)
	})
}
