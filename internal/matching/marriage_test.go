package matching

import (
	"math/rand"
	"slices"
	"testing"
)

// figure5 returns the paper's worked example: three memory-intensive jobs
// (proposers m1-m3) and three compute-intensive jobs (receivers c1-c3).
func figure5() (proposers, receivers [][]int) {
	proposers = [][]int{
		{0, 1, 2}, // m1: c1 > c2 > c3
		{2, 0, 1}, // m2: c3 > c1 > c2
		{0, 1, 2}, // m3: c1 > c2 > c3
	}
	receivers = [][]int{
		{1, 2, 0}, // c1: m2 > m3 > m1
		{2, 0, 1}, // c2: m3 > m1 > m2
		{1, 0, 2}, // c3: m2 > m1 > m3
	}
	return proposers, receivers
}

func TestStableMarriageFigure5(t *testing.T) {
	proposers, receivers := figure5()
	match, err := StableMarriage(proposers, receivers)
	if err != nil {
		t.Fatalf("StableMarriage: %v", err)
	}
	// The paper's outcome: {m1c2, m2c3, m3c1}.
	want := []int{1, 2, 0}
	for i := range want {
		if match[i] != want[i] {
			t.Errorf("m%d matched c%d, want c%d", i+1, match[i]+1, want[i]+1)
		}
	}
	if bp := CrossBlockingPairs(match, proposers, receivers); len(bp) != 0 {
		t.Errorf("paper example should be stable, blocking pairs: %v", bp)
	}
}

func TestStableMarriageRoundsFigure5(t *testing.T) {
	proposers, receivers := figure5()
	match, rounds, err := StableMarriageRounds(proposers, receivers)
	if err != nil {
		t.Fatalf("StableMarriageRounds: %v", err)
	}
	// The paper narrates two rounds: m1,m3->c1 and m2->c3, then m1->c2.
	if rounds != 2 {
		t.Errorf("rounds = %d, want 2", rounds)
	}
	want := []int{1, 2, 0}
	for i := range want {
		if match[i] != want[i] {
			t.Errorf("m%d matched c%d, want c%d", i+1, match[i]+1, want[i]+1)
		}
	}
}

func randomPrefs(r *rand.Rand, n int) [][]int {
	prefs := make([][]int, n)
	for i := range prefs {
		prefs[i] = r.Perm(n)
	}
	return prefs
}

func TestStableMarriageRandomInstances(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		n := 1 + r.Intn(30)
		proposers := randomPrefs(r, n)
		receivers := randomPrefs(r, n)
		match, err := StableMarriage(proposers, receivers)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Perfect matching: every proposer matched, receivers distinct.
		seen := make([]bool, n)
		for i, w := range match {
			if w == Unmatched {
				t.Fatalf("trial %d: proposer %d unmatched", trial, i)
			}
			if seen[w] {
				t.Fatalf("trial %d: receiver %d matched twice", trial, w)
			}
			seen[w] = true
		}
		if bp := CrossBlockingPairs(match, proposers, receivers); len(bp) != 0 {
			t.Fatalf("trial %d: unstable, blocking %v", trial, bp)
		}
	}
}

// proposalsMade is how many proposals deferred acceptance over
// proposerPrefs issues to reach proposerMatch. It is the same in any
// proposal order: each proposer proposes down its list to its partner,
// so it is Σ (partner's position + 1).
func proposalsMade(proposerPrefs [][]int, proposerMatch []int) int {
	n := 0
	for m, w := range proposerMatch {
		n += slices.Index(proposerPrefs[m], w) + 1
	}
	return n
}

// marriageInstance decodes bytes into complete preference lists for
// 0–6 proposers and as many receivers, reading zero once the bytes run
// out: either every list a random permutation, or tie-heavy lists from
// Penalties.Lists over a 3-class matrix of 1–3 distinct values, whose
// agents of one class share one list.
func marriageInstance(data []byte) (proposers, receivers [][]int) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	n := next() % 7
	if next()%2 == 0 {
		perm := func() []int {
			l := identity(n)
			for b := n - 1; b > 0; b-- {
				c := next() % (b + 1)
				l[b], l[c] = l[c], l[b]
			}
			return l
		}
		for range n {
			proposers, receivers = append(proposers, perm()), append(receivers, perm())
		}
		return proposers, receivers
	}
	values := 1 + next()%3
	p := Penalties{Matrix: make([][]float64, 3), Class: make([]int, 2*n)}
	for a := range p.Matrix {
		p.Matrix[a] = make([]float64, 3)
		for b := range p.Matrix[a] {
			p.Matrix[a][b] = float64(next()%values) * 0.1
		}
	}
	for i := range p.Class {
		p.Class[i] = next() % 3
	}
	everyone := identity(2 * n)
	return p.Lists(everyone[:n], everyone[n:]), p.Lists(everyone[n:], everyone[:n])
}

// permutations calls f with every permutation of 0..n-1, in one reused
// slice.
func permutations(n int, f func([]int)) {
	perm := identity(n)
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			f(perm)
			return
		}
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			rec(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(0)
}

// checkProposerOptimal holds StableMarriage on one decoded instance to
// the enumerated stable matchings: every one of the n! perfect matchings
// that CrossBlockingPairs finds no pair against. Its result must be one
// of them, and give each proposer its best partner across them and each
// receiver its worst.
func checkProposerOptimal(t *testing.T, data []byte) {
	t.Helper()
	proposers, receivers := marriageInstance(data)
	n := len(proposers)
	got, err := StableMarriage(proposers, receivers)
	if err != nil {
		t.Fatal(err)
	}
	proposerRank, receiverRank := rankMatrix(proposers), rankMatrix(receivers)
	best, worst := make([]int, n), make([]int, n)
	for i := range best {
		best[i], worst[i] = n, -1
	}
	found := false
	permutations(n, func(match []int) {
		if len(CrossBlockingPairs(match, proposers, receivers)) > 0 {
			return
		}
		found = found || slices.Equal(match, got)
		for m, w := range match {
			best[m] = min(best[m], proposerRank[m][w])
			worst[w] = max(worst[w], receiverRank[w][m])
		}
	})
	if !found {
		t.Fatalf("proposers %v receivers %v: %v is not stable", proposers, receivers, got)
	}
	for m, w := range got {
		if proposerRank[m][w] != best[m] || receiverRank[w][m] != worst[w] {
			t.Fatalf("proposers %v receivers %v: %v gives proposer %d its rank-%d partner (best stable %d), receiver %d its rank-%d (worst stable %d)",
				proposers, receivers, got, m, proposerRank[m][w], best[m], w, receiverRank[w][m], worst[w])
		}
	}
}

// marriageListSeeds is FuzzStableMarriage's corpus and its property
// test's table: 400 random byte strings, long enough for any decoded
// instance, half of them decoding to tie-heavy lists.
func marriageListSeeds() [][]byte {
	rng := rand.New(rand.NewSource(52))
	seeds := make([][]byte, 400)
	for s := range seeds {
		seeds[s] = make([]byte, 2+2*6*6)
		rng.Read(seeds[s])
	}
	return seeds
}

// TestStableMarriageProposerOptimal: on random and tie-heavy complete
// lists of up to 6 a side, StableMarriage is the proposer-optimal,
// receiver-pessimal stable matching.
func TestStableMarriageProposerOptimal(t *testing.T) {
	for _, seed := range marriageListSeeds() {
		checkProposerOptimal(t, seed)
	}
}

// FuzzStableMarriage is TestStableMarriageProposerOptimal on arbitrary
// bytes.
func FuzzStableMarriage(f *testing.F) {
	for _, seed := range marriageListSeeds() {
		f.Add(seed)
	}
	f.Fuzz(checkProposerOptimal)
}

func TestProposerAdvantage(t *testing.T) {
	// Proposer-optimality (the paper's §III-C observation that proposers
	// "perform nearly optimally"): each agent does at least as well
	// proposing as receiving.
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 50; trial++ {
		n := 2 + r.Intn(20)
		side1 := randomPrefs(r, n)
		side2 := randomPrefs(r, n)
		asProposer, err := StableMarriage(side1, side2)
		if err != nil {
			t.Fatal(err)
		}
		reversed, err := StableMarriage(side2, side1)
		if err != nil {
			t.Fatal(err)
		}
		// Invert the reversed matching to get side1's partner when side1
		// receives.
		asReceiver := make([]int, n)
		for j, i := range reversed {
			asReceiver[i] = j
		}
		rank := rankMatrix(side1)
		for i := 0; i < n; i++ {
			if rank[i][asProposer[i]] > rank[i][asReceiver[i]] {
				t.Fatalf("trial %d: agent %d worse as proposer (rank %d) than receiver (rank %d)",
					trial, i, rank[i][asProposer[i]], rank[i][asReceiver[i]])
			}
		}
	}
}

func TestStableMarriageValidation(t *testing.T) {
	ok := [][]int{{0, 1}, {1, 0}}
	cases := []struct {
		name       string
		prop, recv [][]int
	}{
		{"sizeMismatch", ok, [][]int{{0, 1}}},
		{"shortList", [][]int{{0}, {1, 0}}, ok},
		{"outOfRange", [][]int{{0, 5}, {1, 0}}, ok},
		{"duplicate", [][]int{{0, 0}, {1, 0}}, ok},
		{"badReceiver", ok, [][]int{{0, 1}, {1, 1}}},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := StableMarriage(tt.prop, tt.recv); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestStableMarriageEmpty(t *testing.T) {
	match, err := StableMarriage(nil, nil)
	if err != nil || len(match) != 0 {
		t.Errorf("empty instance: match=%v err=%v", match, err)
	}
}

func TestMatchingHelpers(t *testing.T) {
	m := Matching{1, 0, Unmatched}
	if err := m.Validate(); err != nil {
		t.Errorf("valid matching rejected: %v", err)
	}
	bad := []Matching{
		{1, 2, 0},      // asymmetric
		{0, Unmatched}, // self pair (agent 0 with itself)
		{5, Unmatched}, // out of range
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("bad matching %d accepted", i)
		}
	}
}
