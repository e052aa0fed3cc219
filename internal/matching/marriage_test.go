package matching

import (
	"math/rand"
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

func TestStableMarriageRoundsAgreesWithSequential(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(25)
		proposers := randomPrefs(r, n)
		receivers := randomPrefs(r, n)
		seq, err1 := StableMarriage(proposers, receivers)
		par, _, err2 := StableMarriageRounds(proposers, receivers)
		if err1 != nil || err2 != nil {
			t.Fatalf("trial %d: %v %v", trial, err1, err2)
		}
		for i := range seq {
			if seq[i] != par[i] {
				t.Fatalf("trial %d: sequential and parallel disagree at %d: %d vs %d",
					trial, i, seq[i], par[i])
			}
		}
	}
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
			if _, _, err := StableMarriageRounds(tt.prop, tt.recv); err == nil {
				t.Error("expected error from rounds variant")
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
