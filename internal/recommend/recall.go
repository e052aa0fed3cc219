package recommend

import "sort"

// topKLowest returns the K off-diagonal column indices of row i with the
// lowest predicted penalties — the neighbors Cooper's matcher actually
// cares about. Ties break toward the lower column index so the set is
// well defined.
func topKLowest(row []float64, i, k int) map[int]bool {
	type cell struct {
		j int
		v float64
	}
	cells := make([]cell, 0, len(row)-1)
	for j, v := range row {
		if j != i {
			cells = append(cells, cell{j, v})
		}
	}
	sort.Slice(cells, func(a, b int) bool {
		if cells[a].v != cells[b].v {
			return cells[a].v < cells[b].v
		}
		return cells[a].j < cells[b].j
	})
	if k > len(cells) {
		k = len(cells)
	}
	top := make(map[int]bool, k)
	for _, c := range cells[:k] {
		top[c.j] = true
	}
	return top
}

// TopKRecall measures, averaged over rows, how much of the exact
// kernel's per-row top-K lowest-penalty set the approximate kernel
// recovered — the bounded equivalence metric the approximate path is
// gated on (TestApproxTopKRecallGate).
func TopKRecall(exact, approx [][]float64, k int) float64 {
	var hit, total int
	for i := range exact {
		want := topKLowest(exact[i], i, k)
		got := topKLowest(approx[i], i, k)
		for j := range want {
			total++
			if got[j] {
				hit++
			}
		}
	}
	if total == 0 {
		return 1
	}
	return float64(hit) / float64(total)
}
