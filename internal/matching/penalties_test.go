package matching

import (
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// tiedClasses draws a class view whose matrix has few distinct values,
// so that classes tie for a viewer and lists must merge them by agent.
func tiedClasses(r *rand.Rand, classes, n int) Penalties {
	p := Penalties{Matrix: make([][]float64, classes), Class: make([]int, n)}
	for a := range p.Matrix {
		p.Matrix[a] = make([]float64, classes)
		for b := range p.Matrix[a] {
			p.Matrix[a][b] = float64(r.Intn(3)) * 0.1
		}
	}
	for i := range p.Class {
		p.Class[i] = r.Intn(classes)
	}
	return p
}

// expand is the agents×agents matrix p stands for.
func expand(p Penalties) [][]float64 {
	d := make([][]float64, p.Agents())
	for i := range d {
		d[i] = make([]float64, p.Agents())
		for j := range d[i] {
			if i != j {
				d[i][j] = p.At(i, j)
			}
		}
	}
	return d
}

// TestListsOrderAndSharing: every list is the others sorted by (penalty,
// agent index), whatever order the others come in, and agents of one
// class hold the same slice.
func TestListsOrderAndSharing(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 30; trial++ {
		p := tiedClasses(r, 1+r.Intn(6), 2+r.Intn(40))
		perm := r.Perm(p.Agents())
		half := len(perm) / 2
		agents, others := perm[:half], perm[half:]
		lists := p.Lists(agents, others)
		byClass := make(map[int]*int)
		for a, i := range agents {
			want := make([]int, len(others))
			for b := range want {
				want[b] = b
			}
			sort.Slice(want, func(x, y int) bool {
				px, py := p.At(i, others[want[x]]), p.At(i, others[want[y]])
				if px != py {
					return px < py
				}
				return others[want[x]] < others[want[y]]
			})
			if !reflect.DeepEqual(lists[a], want) {
				t.Fatalf("trial %d agent %d: list %v, want %v", trial, i, lists[a], want)
			}
			if first, ok := byClass[p.Class[i]]; ok && first != &lists[a][0] {
				t.Fatalf("trial %d: two agents of class %d hold different slices", trial, p.Class[i])
			}
			byClass[p.Class[i]] = &lists[a][0]
		}
	}
}

// TestStableMarriageSharedLists: lists that share storage marry exactly
// like private copies of them, and a shared list that is not a
// permutation is still rejected.
func TestStableMarriageSharedLists(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	p := tiedClasses(r, 4, 60)
	perm := r.Perm(60)
	proposers, receivers := perm[:30], perm[30:]
	shared := [2][][]int{p.Lists(proposers, receivers), p.Lists(receivers, proposers)}
	var private [2][][]int
	for s, side := range shared {
		for _, list := range side {
			private[s] = append(private[s], append([]int(nil), list...))
		}
	}
	got, gotN, err := StableMarriageProposals(shared[0], shared[1])
	if err != nil {
		t.Fatal(err)
	}
	want, wantN, err := StableMarriageProposals(private[0], private[1])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) || gotN != wantN {
		t.Fatalf("shared lists: %v in %d proposals; private copies: %v in %d", got, gotN, want, wantN)
	}

	bad := []int{0, 0}
	if _, _, err := StableMarriageProposals([][]int{bad, bad}, [][]int{{0, 1}, {1, 0}}); err == nil {
		t.Fatal("a shared list ranking one receiver twice was accepted")
	}
}

// TestAdaptedRoommatesClassesMatchesDense: the SR policy over classes —
// Irving on shared, owner-carrying lists — pairs, retries and counts
// exactly as over the expanded matrix.
func TestAdaptedRoommatesClassesMatchesDense(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	retries := 0
	for trial := 0; trial < 40; trial++ {
		p := tiedClasses(r, 1+r.Intn(6), r.Intn(50))
		if trial%2 == 0 {
			for a := range p.Matrix {
				for b := range p.Matrix[a] {
					p.Matrix[a][b] = r.Float64()
				}
			}
		}
		got, gotStats, err := AdaptedRoommatesClasses(p)
		if err != nil {
			t.Fatal(err)
		}
		want, wantStats, err := AdaptedRoommatesClasses(Dense(expand(p)))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) || gotStats != wantStats {
			t.Fatalf("trial %d (n=%d): classes %v %+v, dense %v %+v", trial, p.Agents(), got, gotStats, want, wantStats)
		}
		retries += gotStats.Retries
	}
	if retries == 0 {
		t.Fatal("no trial exercised the witness-removal retry")
	}
}

// TestStableRoommatesOwnerCarryingLists: Irving over lists that carry
// their owner reduces like the classic owner-less form, and rejects a
// list that is not a permutation.
func TestStableRoommatesOwnerCarryingLists(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for trial := 0; trial < 40; trial++ {
		n := 2 * (1 + r.Intn(8))
		classic, withOwner := make([][]int, n), make([][]int, n)
		for i := range classic {
			for _, j := range r.Perm(n) {
				if j != i {
					classic[i] = append(classic[i], j)
				}
			}
			at := r.Intn(n) // the owner's entry may sit anywhere
			withOwner[i] = append(withOwner[i], classic[i][:at]...)
			withOwner[i] = append(append(withOwner[i], i), classic[i][at:]...)
		}
		want, wantStats, wantErr := StableRoommatesStats(classic)
		got, gotStats, gotErr := stableRoommates(withOwner, true)
		if !reflect.DeepEqual(got, want) || gotStats != wantStats || (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("trial %d: with owners %v %+v %v, classic %v %+v %v", trial, got, gotStats, gotErr, want, wantStats, wantErr)
		}
		var g, w *NoStableError
		if errors.As(gotErr, &g) && errors.As(wantErr, &w) && g.Agent != w.Agent {
			t.Fatalf("trial %d: witness %d with owners, %d classic", trial, g.Agent, w.Agent)
		}
	}
	if _, _, err := stableRoommates([][]int{{0, 0}, {1, 0}}, true); !errors.Is(err, ErrBadPreferences) {
		t.Fatalf("duplicate entry in an owner-carrying list: err = %v", err)
	}
}

// TestBlockingPairsClassesMatchDense: the class-view scan lists exactly
// the pairs, in the same order, that the Figure 10 definition yields over
// the agents×agents matrix the view stands for — through
// AlphaBlockingPairs and through a scan written out from the definition —
// on tie-heavy instances with unmatched agents, and the count agrees
// without the list.
func TestBlockingPairsClassesMatchDense(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for _, n := range []int{2, 3, 17, 200} {
		for trial := 0; trial < 10; trial++ {
			p := tiedClasses(r, 1+r.Intn(6), n)
			// A random matching that leaves about a fifth of the agents
			// (and the odd one out) alone.
			match := make(Matching, n)
			for i := range match {
				match[i] = Unmatched
			}
			perm := r.Perm(n)
			for k := 0; k+1 < n; k += 2 {
				if r.Intn(5) > 0 {
					match[perm[k]], match[perm[k+1]] = perm[k+1], perm[k]
				}
			}
			d := expand(p)
			current := func(i int) float64 {
				if match[i] == Unmatched {
					return 0
				}
				return d[i][match[i]]
			}
			for _, alpha := range []float64{0, 0.02} {
				var want [][2]int
				for i := 0; i < n; i++ {
					for j := i + 1; j < n; j++ {
						if match[i] != j && current(i)-d[i][j] > alpha && current(j)-d[j][i] > alpha {
							want = append(want, [2]int{i, j})
						}
					}
				}
				got := p.BlockingPairs(match, alpha)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("n=%d trial %d α=%v: class view lists %v, want %v", n, trial, alpha, got, want)
				}
				if dense := AlphaBlockingPairs(match, d, alpha); !reflect.DeepEqual(dense, want) {
					t.Fatalf("n=%d trial %d α=%v: dense view lists %v, want %v", n, trial, alpha, dense, want)
				}
				if count := p.CountBlockingPairs(match, alpha); count != len(want) {
					t.Fatalf("n=%d trial %d α=%v: counted %d blocking pairs, want %d", n, trial, alpha, count, len(want))
				}
			}
		}
	}
}
