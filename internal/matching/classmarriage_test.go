package matching

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// classKeyLists is the oracle's preference lists: agents[a] ranks the
// positions of others by (penalty, partner class, partner index), one
// comparator sort per agent.
func classKeyLists(p Penalties, agents, others []int) [][]int {
	lists := make([][]int, len(agents))
	for a, i := range agents {
		l := identity(len(others))
		slices.SortFunc(l, func(x, y int) int {
			jx, jy := others[x], others[y]
			return cmp.Or(cmp.Compare(p.At(i, jx), p.At(i, jy)),
				cmp.Compare(p.Class[jx], p.Class[jy]), cmp.Compare(jx, jy))
		})
		lists[a] = l
	}
	return lists
}

// marriageDraw is one marriage on a market's matrix: every agent's
// class and the two disjoint sides.
type marriageDraw struct {
	class                []int
	proposers, receivers []int
}

// marriageMarket decodes bytes into one penalty matrix and three
// marriages drawn on it, reading zero once the bytes run out: 1–8
// classes; penalties from 1–4 distinct values, a zero entry negated
// (−0) when its byte's high bit is set, one row possibly all zero, two
// columns possibly identical and one row possibly a copy of another; and
// per marriage 0–64 agents, so an odd population leaves one out, with
// the halves drawn at random, or split by class the way SMP splits by
// bandwidth, which leaves classes absent on one side.
func marriageMarket(data []byte) (matrix [][]float64, draws []marriageDraw) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	classes, values := 1+next()%8, 1+next()%4
	matrix = make([][]float64, classes)
	for a := range matrix {
		matrix[a] = make([]float64, classes)
		for b := range matrix[a] {
			v := next()
			matrix[a][b] = float64(v%values) * 0.1
			if v >= 128 && matrix[a][b] == 0 {
				matrix[a][b] = math.Copysign(0, -1)
			}
		}
	}
	if z := next() % (2 * classes); z < classes {
		clear(matrix[z])
	}
	from, to := next()%classes, next()%classes
	for a := range matrix {
		matrix[a][to] = matrix[a][from]
	}
	if z := next() % (2 * classes); z < classes {
		copy(matrix[z], matrix[next()%classes])
	}
	for range 3 {
		n := next() % 65
		class := make([]int, n)
		for i := range class {
			class[i] = next() % classes
		}
		order := identity(n)
		if next()%2 == 0 {
			for b := n - 1; b > 0; b-- {
				c := next() % (b + 1)
				order[b], order[c] = order[c], order[b]
			}
		} else {
			slices.SortStableFunc(order, func(x, y int) int { return cmp.Compare(class[x], class[y]) })
		}
		half := n / 2
		draws = append(draws, marriageDraw{class, order[n-half:], order[:half]})
	}
	return matrix, draws
}

// tiesPresent reports whether some viewer row of one side ranks two
// classes present on the other side alike.
func tiesPresent(p Penalties, proposers, receivers []int) bool {
	for _, sides := range [2][2][]int{{proposers, receivers}, {receivers, proposers}} {
		present := make(map[int]bool)
		for _, j := range sides[1] {
			present[p.Class[j]] = true
		}
		for _, i := range sides[0] {
			seen := make(map[float64]int)
			for c := range present {
				v := p.Matrix[p.Class[i]][c]
				if d, ok := seen[v]; ok && d != c {
					return true
				}
				seen[v] = c
			}
		}
	}
	return false
}

// checkMarriageClasses holds StableMarriageClasses on every marriage of
// one decoded market to StableMarriage over classKeyLists, matching for
// matching, with no more class steps than the oracle's proposals. The view carrying the matrix's preference table, built once
// for the three marriages as the market engine builds it, must give the
// matching and the steps the view without one gives. The Dense view of
// the same penalties, with and without its table, and the class view
// itself when no viewer row ties two present classes, must also give
// what Gale–Shapley over Penalties.Lists gives: on those the new key
// changes nothing. Over a Dense view every class is one agent, so a
// class step is a proposal. The three marriages run through one scratch
// that a larger market dirtied first must give what they give through
// none, step for step.
func checkMarriageClasses(t *testing.T, data []byte) {
	t.Helper()
	matrix, draws := marriageMarket(data)
	ranks := Rank(matrix)
	s := dirtyMarriageScratch()
	for _, d := range draws {
		p, proposers, receivers := Penalties{Matrix: matrix, Class: d.class}, d.proposers, d.receivers
		got, steps, err := StableMarriageClasses(p, proposers, receivers, nil)
		if err != nil {
			t.Fatal(err)
		}
		withTable := p
		withTable.Ranks = ranks
		tabled, tabledSteps, err := StableMarriageClasses(withTable, proposers, receivers, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, tabled) || steps != tabledSteps {
			t.Fatalf("matrix %v classes %v proposers %v receivers %v: %v in %d steps, with the table %v in %d",
				matrix, d.class, proposers, receivers, got, steps, tabled, tabledSteps)
		}
		reused, reusedSteps, err := StableMarriageClasses(withTable, proposers, receivers, s)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(reused, tabled) || reusedSteps != tabledSteps {
			t.Fatalf("matrix %v classes %v proposers %v receivers %v: %v in %d steps through a reused scratch, %v in %d through none",
				matrix, d.class, proposers, receivers, reused, reusedSteps, tabled, tabledSteps)
		}
		oracle := classKeyLists(p, proposers, receivers)
		want, err := StableMarriage(oracle, classKeyLists(p, receivers, proposers))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("matrix %v classes %v proposers %v receivers %v: %v, the oracle %v",
				matrix, d.class, proposers, receivers, got, want)
		}
		if proposals := proposalsMade(oracle, want); steps > proposals {
			t.Fatalf("%d class steps, the oracle made %d proposals", steps, proposals)
		}

		listed, err := StableMarriage(p.Lists(proposers, receivers), p.Lists(receivers, proposers))
		if err != nil {
			t.Fatal(err)
		}
		if !tiesPresent(p, proposers, receivers) && !slices.Equal(got, listed) {
			t.Fatalf("tie-free view: %v, over Penalties.Lists %v", got, listed)
		}
		dense := Dense(expand(p))
		denseLists := dense.Lists(proposers, receivers)
		denseListed, err := StableMarriage(denseLists, dense.Lists(receivers, proposers))
		if err != nil {
			t.Fatal(err)
		}
		denseN := proposalsMade(denseLists, denseListed)
		for _, ranks := range [][]int32{nil, Rank(dense.Matrix)} {
			dense.Ranks = ranks
			got, steps, err := StableMarriageClasses(dense, proposers, receivers, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, denseListed) || steps != denseN {
				t.Fatalf("Dense view (table %t): %v in %d steps, over Penalties.Lists %v in %d proposals",
					ranks != nil, got, steps, denseListed, denseN)
			}
		}
	}
}

// dirtyMarriageScratch is a scratch a marriage larger than any
// marriageMarket decodes has left its tables in: 9 classes of 3 values,
// 100 agents halved at random.
func dirtyMarriageScratch() *MarriageScratch {
	rng := rand.New(rand.NewSource(9))
	matrix := make([][]float64, 9)
	for a := range matrix {
		matrix[a] = make([]float64, 9)
		for b := range matrix[a] {
			matrix[a][b] = float64(rng.Intn(3)) * 0.1
		}
	}
	p := Penalties{Matrix: matrix, Class: make([]int, 100)}
	for i := range p.Class {
		p.Class[i] = rng.Intn(9)
	}
	order := rng.Perm(100)
	s := new(MarriageScratch)
	if _, _, err := StableMarriageClasses(p, order[:50], order[50:], s); err != nil {
		panic(err)
	}
	return s
}

// marriageSeeds is FuzzStableMarriageClasses's corpus and its table
// test's: 400 random byte strings, long enough for any decoded market,
// and three made to decode into a matrix of ±0 entries, one with equal
// rows, and a marriage split by class with a class on each side that the
// other lacks.
func marriageSeeds() [][]byte {
	rng := rand.New(rand.NewSource(39))
	seeds := make([][]byte, 400)
	for s := range seeds {
		seeds[s] = make([]byte, 6+8*8+3*(2+64+64))
		rng.Read(seeds[s])
	}
	return append(seeds,
		// 3 classes of one value, zero, half its entries −0; no column or
		// row copied over another; 12 agents of classes 0,1,2,… halved at
		// random.
		[]byte{2, 0, 128, 0, 128, 0, 128, 0, 128, 0, 128, 3, 0, 0, 5, 12,
			0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 3, 1, 4, 1, 5, 9, 2, 6, 5, 3},
		// 4 classes of 3 values, no row zeroed, column 1 copied onto
		// itself, row 2 a copy of row 0; 16 agents halved at random.
		[]byte{3, 2, 0, 1, 2, 1, 2, 0, 1, 1, 1, 2, 0, 2, 0, 0, 2, 1, 7, 1, 1, 2, 0,
			16, 0, 1, 2, 3, 3, 2, 1, 0, 0, 2, 1, 3, 3, 1, 2, 0, 0,
			7, 3, 9, 1, 4, 4, 2, 8, 0, 5, 6, 1, 2, 2},
		// 3 classes of 3 values; 6 agents of classes 0,0,1,1,2,2 split by
		// class: class 2 proposes only and class 0 only receives.
		[]byte{2, 2, 0, 1, 2, 2, 1, 0, 1, 2, 0, 5, 0, 0, 5,
			6, 0, 0, 1, 1, 2, 2, 1},
	)
}

// TestStableMarriageClassesMatchesOracle: on tie-heavy instances of every
// shape, the count-level marriage is Gale–Shapley under its key.
func TestStableMarriageClassesMatchesOracle(t *testing.T) {
	for _, seed := range marriageSeeds() {
		checkMarriageClasses(t, seed)
	}
}

// FuzzStableMarriageClasses is TestStableMarriageClassesMatchesOracle on
// arbitrary bytes.
func FuzzStableMarriageClasses(f *testing.F) {
	for _, seed := range marriageSeeds() {
		f.Add(seed)
	}
	f.Fuzz(checkMarriageClasses)
}

// TestStableMarriageClassesTable pins hand-made instances: a population
// of one class on each side, every row zero, two classes whose members
// interleave by index, and an empty marriage.
func TestStableMarriageClassesTable(t *testing.T) {
	for _, tc := range []struct {
		name                 string
		matrix               [][]float64
		class                []int
		proposers, receivers []int
		want                 []int
	}{
		{"empty", [][]float64{{0}}, nil, nil, nil, []int{}},
		{"one class a side", [][]float64{{0, 1}, {1, 0}}, []int{0, 1, 0, 1}, []int{2, 0}, []int{1, 3}, []int{1, 0}},
		{"all zero: class then index", [][]float64{{0, 0}, {0, 0}}, []int{1, 0, 1, 0, 0, 1},
			[]int{0, 1, 2}, []int{5, 4, 3}, []int{1, 2, 0}},
		{"interleaved tie", [][]float64{{0.2, 0.1, 0.1}, {0.1, 0.2, 0.2}, {0.1, 0.2, 0.2}}, []int{0, 1, 2, 1, 2, 0},
			[]int{0, 5}, []int{1, 2}, []int{0, 1}},
	} {
		p := Penalties{Matrix: tc.matrix, Class: tc.class}
		got, _, err := StableMarriageClasses(p, tc.proposers, tc.receivers, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want, err := StableMarriage(classKeyLists(p, tc.proposers, tc.receivers), classKeyLists(p, tc.receivers, tc.proposers))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, tc.want) || !slices.Equal(got, want) {
			t.Errorf("%s: %v, want %v (oracle %v)", tc.name, got, tc.want, want)
		}
	}
}

// TestStableMarriageClassesErrors: sides of different sizes, an agent on
// both sides and an agent outside the view are errors, not panics; a
// preference table of the wrong size fails Validate, which the policies
// run before they marry.
func TestStableMarriageClassesErrors(t *testing.T) {
	p := Penalties{Matrix: [][]float64{{0, 1}, {1, 0}}, Class: []int{0, 1, 0, 1}}
	for name, sides := range map[string][2][]int{
		"sizes":   {{0, 1}, {2}},
		"twice":   {{0, 1}, {1, 2}},
		"outside": {{0, 1}, {2, 4}},
	} {
		if _, _, err := StableMarriageClasses(p, sides[0], sides[1], nil); err == nil {
			t.Errorf("%s: accepted %v vs %v", name, sides[0], sides[1])
		}
	}
	bad := Penalties{Matrix: [][]float64{{0}}, Class: []int{0, 1}}
	if _, _, err := StableMarriageClasses(bad, []int{0}, []int{1}, nil); err == nil {
		t.Error("accepted a class outside the matrix")
	}
	if err := (Penalties{Matrix: p.Matrix, Class: p.Class, Ranks: []int32{0, 1}}).Validate(); err == nil {
		t.Error("Validate accepted a 2-entry preference table for a 2-class matrix")
	}
}

// TestStableMarriageClassesCycle pins the cycle move on a market built to
// ping-pong. Proposer classes 0 and 1 have m members each and class 2 one;
// receiver classes 3 and 4 hold m each and class 5 one. Class 0 prefers 4
// to 3 and class 1 the reverse; 3 ranks 0 over 1 and 4 ranks 1 over 0.
// Class 2's one member bumps a member of class 0 from 4, and from then on
// each rejection at 3 causes one at 4 and back, one member at a time,
// until class 0 holds nothing at 4: 2m steps, moved in one. So the steps
// are the same at every m, and the matching is still Gale–Shapley's.
func TestStableMarriageClassesCycle(t *testing.T) {
	matrix := [][]float64{
		{0, 0, 0, 0.2, 0.1, 0.3},
		{0, 0, 0, 0.1, 0.2, 0.3},
		{0, 0, 0, 0.2, 0.1, 0.3},
		{0.1, 0.2, 0.3, 0, 0, 0},
		{0.3, 0.2, 0.1, 0, 0, 0},
		{0.1, 0.1, 0.1, 0, 0, 0},
	}
	steps := make(map[int]int)
	for _, m := range []int{40, 160} {
		var p Penalties
		p.Matrix = matrix
		var proposers, receivers []int
		add := func(side *[]int, class, count int) {
			for ; count > 0; count-- {
				*side = append(*side, len(p.Class))
				p.Class = append(p.Class, class)
			}
		}
		add(&proposers, 0, m)
		add(&receivers, 3, m)
		add(&proposers, 1, m)
		add(&receivers, 4, m)
		add(&proposers, 2, 1)
		add(&receivers, 5, 1)
		got, n, err := StableMarriageClasses(p, proposers, receivers, nil)
		if err != nil {
			t.Fatal(err)
		}
		oracle := classKeyLists(p, proposers, receivers)
		want, err := StableMarriage(oracle, classKeyLists(p, receivers, proposers))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("m=%d: %v, the oracle %v", m, got, want)
		}
		if proposals := proposalsMade(oracle, want); proposals < 2*m {
			t.Fatalf("m=%d: the oracle made %d proposals; the market does not ping-pong", m, proposals)
		}
		steps[m] = n
	}
	if steps[40] != steps[160] || steps[40] > 20 {
		t.Fatalf("class steps %v at m=40 and 160, want the same few at both", steps)
	}
}

// predictedShaped returns n agents of 20 classes on a matrix of 8
// distinct values, whose rows tie classes the way the predicted matrix's
// do, with the preference table, and two random halves of the agents.
func predictedShaped(n int) (p Penalties, proposers, receivers []int) {
	r := rand.New(rand.NewSource(42))
	p.Matrix = make([][]float64, 20)
	for a := range p.Matrix {
		p.Matrix[a] = make([]float64, 20)
		for b := range p.Matrix[a] {
			p.Matrix[a][b] = float64(r.Intn(8)) * 0.05
		}
	}
	p.Ranks = Rank(p.Matrix)
	p.Class = make([]int, n)
	for i := range p.Class {
		p.Class[i] = r.Intn(20)
	}
	order := r.Perm(n)
	return p, order[:n/2], order[n/2 : 2*(n/2)]
}

// BenchmarkStableMarriageClasses times one count-level marriage between
// random halves: of 800 and 20,000 agents of a 20-class tie-heavy view
// carrying its preference table, as the market engine's clear hands it
// over; and of 800 agents through that view's Dense expansion (every
// agent its own class, no table), beside Gale–Shapley over the Dense
// view's Penalties.Lists — the count marriage's gap to agent-level
// proposals on Dense views.
func BenchmarkStableMarriageClasses(b *testing.B) {
	for _, n := range []int{800, 20000} {
		p, proposers, receivers := predictedShaped(n)
		b.Run(fmt.Sprintf("classes/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if _, _, err := StableMarriageClasses(p, proposers, receivers, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	p, proposers, receivers := predictedShaped(800)
	dense := Dense(expand(p))
	b.Run("dense/n=800", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			if _, _, err := StableMarriageClasses(dense, proposers, receivers, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dense-lists/n=800", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			if _, err := StableMarriage(dense.Lists(proposers, receivers), dense.Lists(receivers, proposers)); err != nil {
				b.Fatal(err)
			}
		}
	})
}
