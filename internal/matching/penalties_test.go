package matching

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
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

// listsReference is Penalties.Lists as it was first written: others
// grouped by (class, agent index) with a comparator sort, the groups laid
// end to end in each viewer class's penalty order, and every tier of
// equal-penalty classes sorted again by agent index. It is the oracle
// FuzzLists holds the index-sort-and-bucket version to.
func listsReference(p Penalties, agents, others []int) [][]int {
	// Positions of others grouped by class, ascending agent index within
	// each class: a list is whole groups laid end to end, since a class's
	// members differ only in the tie-break.
	grouped := identity(len(others))
	slices.SortFunc(grouped, func(x, y int) int {
		if c := cmp.Compare(p.Class[others[x]], p.Class[others[y]]); c != 0 {
			return c
		}
		return cmp.Compare(others[x], others[y])
	})
	var classes, start []int // group g is grouped[start[g]:start[g+1]], of class classes[g]
	for at, b := range grouped {
		if c := p.Class[others[b]]; at == 0 || c != classes[len(classes)-1] {
			classes = append(classes, c)
			start = append(start, at)
		}
	}
	start = append(start, len(grouped))

	order := make([]int, len(classes))
	shared := make(map[int][]int)
	lists := make([][]int, len(agents))
	for a, i := range agents {
		c := p.Class[i]
		list, ok := shared[c]
		if !ok {
			row := p.Matrix[c]
			for g := range order {
				order[g] = g
			}
			slices.SortFunc(order, func(x, y int) int { return cmp.Compare(row[classes[x]], row[classes[y]]) })
			list = make([]int, 0, len(others))
			for x, y := 0, 0; x < len(order); x = y {
				for y = x + 1; y < len(order) && row[classes[order[y]]] == row[classes[order[x]]]; y++ {
				}
				from := len(list)
				for _, g := range order[x:y] {
					list = append(list, grouped[start[g]:start[g+1]]...)
				}
				if y-x > 1 {
					// Classes of equal penalty interleave by agent index.
					slices.SortFunc(list[from:], func(u, v int) int { return cmp.Compare(others[u], others[v]) })
				}
			}
			shared[c] = list
		}
		lists[a] = list
	}
	return lists
}

// listsInstance decodes bytes into a Lists call, reading zero once the
// bytes run out: 1–8 classes, 0–64 agents, penalties from {0, 0.1, 0.2}
// so that tiers are common, each agent's class, and a shape — Lists(ids,
// ids) over an ascending subset, the way the SR policy calls it, or
// agents and others drawn independently (so they may overlap) with
// others shuffled.
func listsInstance(data []byte) (p Penalties, agents, others []int) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	classes, n := 1+next()%8, next()%65
	p = Penalties{Matrix: make([][]float64, classes), Class: make([]int, n)}
	for a := range p.Matrix {
		p.Matrix[a] = make([]float64, classes)
		for b := range p.Matrix[a] {
			p.Matrix[a][b] = float64(next()%3) * 0.1
		}
	}
	for i := range p.Class {
		p.Class[i] = next() % classes
	}
	sr := next()%2 == 0
	for i := 0; i < n; i++ {
		k := next()
		if sr {
			if k%4 != 0 {
				agents = append(agents, i)
			}
			continue
		}
		if k&1 != 0 {
			agents = append(agents, i)
		}
		if k&2 != 0 {
			others = append(others, i)
		}
	}
	if sr {
		return p, agents, agents
	}
	for b := len(others) - 1; b > 0; b-- {
		c := next() % (b + 1)
		others[b], others[c] = others[c], others[b]
	}
	return p, agents, others
}

// checkLists holds Lists on one decoded instance to listsReference
// element for element, and checks the sharing contract: agents of one
// class hold the same slice, agents of different classes different
// ones, and no list has room to grow into another's. The view carrying
// the matrix's preference table lists the same.
func checkLists(t *testing.T, data []byte) {
	t.Helper()
	p, agents, others := listsInstance(data)
	got, want := p.Lists(agents, others), listsReference(p, agents, others)
	if len(got) != len(want) {
		t.Fatalf("%d lists, want %d", len(got), len(want))
	}
	tabled := p
	tabled.Ranks = Rank(p.Matrix)
	if withTable := tabled.Lists(agents, others); !reflect.DeepEqual(withTable, got) {
		t.Fatalf("classes %v matrix %v agents %v others %v: lists %v with the preference table, %v without",
			p.Class, p.Matrix, agents, others, withTable, got)
	}
	first := make(map[int]*int)
	for a, i := range agents {
		if !slices.Equal(got[a], want[a]) || len(got[a]) != len(others) {
			t.Fatalf("classes %v matrix %v agents %v others %v: agent %d's list %v, want %v",
				p.Class, p.Matrix, agents, others, i, got[a], want[a])
		}
		if len(others) == 0 {
			continue
		}
		if cap(got[a]) != len(got[a]) {
			t.Fatalf("agent %d's list has capacity %d beyond its length %d", i, cap(got[a]), len(got[a]))
		}
		c := p.Class[i]
		if f, ok := first[c]; ok && f != &got[a][0] {
			t.Fatalf("two agents of class %d hold different slices", c)
		}
		first[c] = &got[a][0]
	}
	seen := make(map[*int]int)
	for c, f := range first {
		if d, ok := seen[f]; ok {
			t.Fatalf("classes %d and %d hold the same slice", d, c)
		}
		seen[f] = c
	}
}

// listsSeeds is FuzzLists's corpus and its property test's table: 300
// random byte strings, long enough for any decoded instance.
func listsSeeds() [][]byte {
	rng := rand.New(rand.NewSource(36))
	seeds := make([][]byte, 300)
	for s := range seeds {
		seeds[s] = make([]byte, 3+8*8+64+64+64)
		rng.Read(seeds[s])
	}
	return seeds
}

// TestListsMatchReference: on tie-heavy instances of every shape, Lists
// yields listsReference's lists and shares them by class.
func TestListsMatchReference(t *testing.T) {
	for _, seed := range listsSeeds() {
		checkLists(t, seed)
	}
}

// FuzzLists is TestListsMatchReference on arbitrary bytes.
func FuzzLists(f *testing.F) {
	for _, seed := range listsSeeds() {
		f.Add(seed)
	}
	f.Fuzz(checkLists)
}

// TestListsAllocations is Lists's complexity pin. Growth class: O(1)
// allocations in agents and in classes — one backing array carries every
// class's list — so one call allocates the same number of times at n=400
// and n=1600, with 4 and with 20 classes; a per-class allocation shows up
// as a count that grows with the classes.
func TestListsAllocations(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	counts := make(map[string]float64)
	for _, n := range []int{400, 1600} {
		for _, classes := range []int{4, 20} {
			p := tiedClasses(r, classes, n)
			ids := identity(n)
			counts[fmt.Sprintf("n=%d classes=%d", n, classes)] = testing.AllocsPerRun(5, func() { p.Lists(ids, ids) })
		}
	}
	want := counts["n=400 classes=4"]
	for row, got := range counts {
		if got != want {
			t.Fatalf("Lists allocates %v times at %s, %v at n=400 classes=4: %v", got, row, want, counts)
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
	got, gotRounds, err := StableMarriageRounds(shared[0], shared[1])
	if err != nil {
		t.Fatal(err)
	}
	want, wantRounds, err := StableMarriageRounds(private[0], private[1])
	if err != nil {
		t.Fatal(err)
	}
	gotN, wantN := proposalsMade(shared[0], got), proposalsMade(private[0], want)
	if !reflect.DeepEqual(got, want) || gotN != wantN || gotRounds != wantRounds {
		t.Fatalf("shared lists: %v in %d proposals and %d rounds; private copies: %v in %d and %d",
			got, gotN, gotRounds, want, wantN, wantRounds)
	}

	bad := []int{0, 0}
	if _, err := StableMarriage([][]int{bad, bad}, [][]int{{0, 1}, {1, 0}}); err == nil {
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

// TestBlockingPairsClassesMatchDense: the class-view scan lists exactly
// the pairs, in the same order, that the Figure 10 definition yields over
// the agents×agents matrix the view stands for — through
// Dense and through a scan written out from the definition —
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
				if dense := Dense(d).BlockingPairs(match, alpha); !reflect.DeepEqual(dense, want) {
					t.Fatalf("n=%d trial %d α=%v: dense view lists %v, want %v", n, trial, alpha, dense, want)
				}
				if count := p.CountBlockingPairs(match, alpha); count != len(want) {
					t.Fatalf("n=%d trial %d α=%v: counted %d blocking pairs, want %d", n, trial, alpha, count, len(want))
				}
			}
		}
	}
}

// TestRerankIsRank: a table with one row re-ranked after that row of the
// matrix changed is the table of the changed matrix, and the table it
// was copied from is left as it was. The matrices are marriageMarket's
// (ties, ±0, equal rows and columns); each row in turn is reversed.
func TestRerankIsRank(t *testing.T) {
	for _, seed := range marriageSeeds()[:100] {
		matrix, _ := marriageMarket(seed)
		p := Penalties{Matrix: matrix}.WithRanks()
		before := slices.Clone(p.Ranks)
		for c := range matrix {
			changed := slices.Clone(matrix)
			changed[c] = slices.Clone(matrix[c])
			slices.Reverse(changed[c])
			q := p
			q.Matrix = changed
			if got, want := q.Rerank(c).Ranks, Rank(changed); !slices.Equal(got, want) {
				t.Fatalf("matrix %v, row %d reversed: table %v, Rank %v", matrix, c, got, want)
			}
			if !slices.Equal(p.Ranks, before) {
				t.Fatalf("matrix %v: Rerank(%d) wrote into the table it copied", matrix, c)
			}
		}
	}
}
