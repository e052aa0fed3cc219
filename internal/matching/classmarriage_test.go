package matching

import (
	"cmp"
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

// marriageInstance decodes bytes into a marriage between two disjoint
// halves of a class view, reading zero once the bytes run out: 1–8
// classes; penalties from 1–4 distinct values, one row possibly all zero
// and two columns possibly identical; 0–64 agents, so an odd population
// leaves one out; and the halves drawn at random, or split by class the
// way SMP splits by bandwidth, which leaves classes absent on one side.
func marriageInstance(data []byte) (p Penalties, proposers, receivers []int) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	classes, values, n := 1+next()%8, 1+next()%4, next()%65
	p = Penalties{Matrix: make([][]float64, classes), Class: make([]int, n)}
	for a := range p.Matrix {
		p.Matrix[a] = make([]float64, classes)
		for b := range p.Matrix[a] {
			p.Matrix[a][b] = float64(next()%values) * 0.1
		}
	}
	if z := next() % (2 * classes); z < classes {
		clear(p.Matrix[z])
	}
	from, to := next()%classes, next()%classes
	for a := range p.Matrix {
		p.Matrix[a][to] = p.Matrix[a][from]
	}
	for i := range p.Class {
		p.Class[i] = next() % classes
	}
	order := identity(n)
	if next()%2 == 0 {
		for b := n - 1; b > 0; b-- {
			c := next() % (b + 1)
			order[b], order[c] = order[c], order[b]
		}
	} else {
		slices.SortStableFunc(order, func(x, y int) int { return cmp.Compare(p.Class[x], p.Class[y]) })
	}
	half := n / 2
	return p, order[n-half:], order[:half]
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

// checkMarriageClasses holds StableMarriageClasses on one decoded
// instance to StableMarriageProposals over classKeyLists, matching for
// matching, with no more class steps than the oracle's proposals. The
// Dense view of the same penalties, and the class view itself when no
// viewer row ties two present classes, must also give what Gale–Shapley
// over Penalties.Lists gives: on those the new key changes nothing. Over
// a Dense view every class is one agent, so a class step is a proposal.
func checkMarriageClasses(t *testing.T, data []byte) {
	t.Helper()
	p, proposers, receivers := marriageInstance(data)
	got, steps, err := StableMarriageClasses(p, proposers, receivers)
	if err != nil {
		t.Fatal(err)
	}
	want, proposals, err := StableMarriageProposals(classKeyLists(p, proposers, receivers), classKeyLists(p, receivers, proposers))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("matrix %v classes %v proposers %v receivers %v: %v, the oracle %v",
			p.Matrix, p.Class, proposers, receivers, got, want)
	}
	if steps > proposals {
		t.Fatalf("%d class steps, the oracle made %d proposals", steps, proposals)
	}

	listed, _, err := StableMarriageProposals(p.Lists(proposers, receivers), p.Lists(receivers, proposers))
	if err != nil {
		t.Fatal(err)
	}
	if !tiesPresent(p, proposers, receivers) && !slices.Equal(got, listed) {
		t.Fatalf("tie-free view: %v, over Penalties.Lists %v", got, listed)
	}
	dense, denseSteps, err := StableMarriageClasses(Dense(expand(p)), proposers, receivers)
	if err != nil {
		t.Fatal(err)
	}
	denseListed, denseN, err := StableMarriageProposals(Dense(expand(p)).Lists(proposers, receivers),
		Dense(expand(p)).Lists(receivers, proposers))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(dense, denseListed) || denseSteps != denseN {
		t.Fatalf("Dense view: %v in %d steps, over Penalties.Lists %v in %d proposals", dense, denseSteps, denseListed, denseN)
	}
}

// marriageSeeds is FuzzStableMarriageClasses's corpus and its table
// test's: 400 random byte strings, long enough for any decoded instance.
func marriageSeeds() [][]byte {
	rng := rand.New(rand.NewSource(39))
	seeds := make([][]byte, 400)
	for s := range seeds {
		seeds[s] = make([]byte, 6+8*8+64+64)
		rng.Read(seeds[s])
	}
	return seeds
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
		got, _, err := StableMarriageClasses(p, tc.proposers, tc.receivers)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want, _, err := StableMarriageProposals(classKeyLists(p, tc.proposers, tc.receivers), classKeyLists(p, tc.receivers, tc.proposers))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, tc.want) || !slices.Equal(got, want) {
			t.Errorf("%s: %v, want %v (oracle %v)", tc.name, got, tc.want, want)
		}
	}
}

// TestStableMarriageClassesErrors: sides of different sizes, an agent on
// both sides and an agent outside the view are errors, not panics.
func TestStableMarriageClassesErrors(t *testing.T) {
	p := Penalties{Matrix: [][]float64{{0, 1}, {1, 0}}, Class: []int{0, 1, 0, 1}}
	for name, sides := range map[string][2][]int{
		"sizes":   {{0, 1}, {2}},
		"twice":   {{0, 1}, {1, 2}},
		"outside": {{0, 1}, {2, 4}},
	} {
		if _, _, err := StableMarriageClasses(p, sides[0], sides[1]); err == nil {
			t.Errorf("%s: accepted %v vs %v", name, sides[0], sides[1])
		}
	}
	bad := Penalties{Matrix: [][]float64{{0}}, Class: []int{0, 1}}
	if _, _, err := StableMarriageClasses(bad, []int{0}, []int{1}); err == nil {
		t.Error("accepted a class outside the matrix")
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
		got, n, err := StableMarriageClasses(p, proposers, receivers)
		if err != nil {
			t.Fatal(err)
		}
		want, proposals, err := StableMarriageProposals(classKeyLists(p, proposers, receivers), classKeyLists(p, receivers, proposers))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("m=%d: %v, the oracle %v", m, got, want)
		}
		if proposals < 2*m {
			t.Fatalf("m=%d: the oracle made %d proposals; the market does not ping-pong", m, proposals)
		}
		steps[m] = n
	}
	if steps[40] != steps[160] || steps[40] > 20 {
		t.Fatalf("class steps %v at m=40 and 160, want the same few at both", steps)
	}
}
