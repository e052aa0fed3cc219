package matching

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
)

// bruteStable reports whether any perfectly stable matching exists for the
// given roommate preferences, by enumerating all perfect matchings. Only
// usable for small even n.
func bruteStable(prefs [][]int) bool {
	n := len(prefs)
	match := make(Matching, n)
	for i := range match {
		match[i] = Unmatched
	}
	var rec func() bool
	rec = func() bool {
		i := -1
		for k := 0; k < n; k++ {
			if match[k] == Unmatched {
				i = k
				break
			}
		}
		if i == -1 {
			return len(RoommateBlockingPairs(match, prefs)) == 0
		}
		for j := i + 1; j < n; j++ {
			if match[j] != Unmatched {
				continue
			}
			match[i], match[j] = j, i
			if rec() {
				return true
			}
			match[i], match[j] = Unmatched, Unmatched
		}
		return false
	}
	return rec()
}

// classicRoommates runs Irving's algorithm on the classic instance form,
// where prefs[i] ranks the other n-1 agents: it appends each owner to a
// copy of its own list, so a malformed list stays malformed.
func classicRoommates(prefs [][]int) (Matching, error) {
	owned := make([][]int, len(prefs))
	for i, list := range prefs {
		owned[i] = append(slices.Clone(list), i)
	}
	match, _, err := stableRoommates(owned)
	return match, err
}

func TestStableRoommatesIrvingExample(t *testing.T) {
	// Irving (1985), Example 1: a 6-agent instance with a stable matching.
	prefs := [][]int{
		{3, 5, 1, 4, 2},
		{5, 2, 4, 0, 3},
		{3, 4, 0, 5, 1},
		{1, 5, 4, 0, 2},
		{3, 1, 2, 5, 0},
		{4, 0, 3, 1, 2},
	}
	match, err := classicRoommates(prefs)
	if err != nil {
		t.Fatalf("classicRoommates: %v", err)
	}
	if err := match.Validate(); err != nil {
		t.Fatalf("invalid matching: %v", err)
	}
	for i, j := range match {
		if j == Unmatched {
			t.Fatalf("agent %d unmatched", i)
		}
	}
	if bp := RoommateBlockingPairs(match, prefs); len(bp) != 0 {
		t.Errorf("unstable: blocking pairs %v", bp)
	}
}

func TestStableRoommatesNoSolution(t *testing.T) {
	// The classic cyclic instance with no stable matching: agents 0, 1, 2
	// each rank the next agent in the cycle first and agent 3 last.
	prefs := [][]int{
		{1, 2, 3},
		{2, 0, 3},
		{0, 1, 3},
		{0, 1, 2},
	}
	if !bruteStable(prefs) {
		// sanity: brute force agrees this instance is unstable
	} else {
		t.Fatal("test instance unexpectedly has a stable matching")
	}
	_, err := classicRoommates(prefs)
	if !errors.Is(err, ErrNoStableMatching) {
		t.Fatalf("err = %v, want ErrNoStableMatching", err)
	}
	var nse *NoStableError
	if !errors.As(err, &nse) {
		t.Fatal("error should carry a witness agent")
	}
	if nse.Agent < 0 || nse.Agent > 3 {
		t.Errorf("witness agent %d out of range", nse.Agent)
	}
}

func TestStableRoommatesOddPopulation(t *testing.T) {
	prefs := [][]int{
		{1, 2},
		{0, 2},
		{0, 1},
	}
	_, err := classicRoommates(prefs)
	if !errors.Is(err, ErrNoStableMatching) {
		t.Fatalf("odd n should have no perfect stable matching, got %v", err)
	}
}

func TestStableRoommatesValidation(t *testing.T) {
	cases := [][][]int{
		{{0}},                    // single agent
		{{1, 2}, {0}},            // short list
		{{1, 1}, {0, 0}},         // duplicates (n=2 needs 1 entry; also short)
		{{1, 5}, {0, 3}, {0, 1}}, // out of range
		{{0, 1}, {0, 2}, {0, 1}}, // self-reference
	}
	for i, prefs := range cases {
		if _, err := classicRoommates(prefs); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestStableRoommatesBadPreferencesTyped(t *testing.T) {
	cases := map[string][][]int{
		"empty":       {},
		"single":      {{}},
		"ragged":      {{1, 2, 3}, {0}, {0, 1, 3}, {0, 1, 2}},
		"emptyLists":  {{}, {}},
		"outOfRange":  {{1, 9, 3}, {0, 2, 3}, {0, 1, 3}, {0, 1, 2}},
		"selfRanking": {{0}, {0}},
		"duplicate":   {{1, 1, 1}, {0, 2, 3}, {0, 1, 3}, {0, 1, 2}},
	}
	for name, prefs := range cases {
		t.Run(name, func(t *testing.T) {
			_, err := classicRoommates(prefs)
			if err == nil {
				t.Fatal("malformed prefs accepted")
			}
			if !errors.Is(err, ErrBadPreferences) {
				t.Fatalf("err = %v, want ErrBadPreferences", err)
			}
			if errors.Is(err, ErrNoStableMatching) {
				t.Fatalf("bad input misreported as no-stable-matching: %v", err)
			}
		})
	}
	// A valid instance must not trip the validator.
	if _, err := classicRoommates([][]int{{1, 2, 3}, {0, 2, 3}, {0, 1, 3}, {0, 1, 2}}); err != nil {
		t.Fatalf("valid instance rejected: %v", err)
	}
}

func TestRoommateBlockingPairsRaggedPrefs(t *testing.T) {
	// Out-of-range and short lists must not panic the ordinal checker.
	match := Matching{1, 0, 3, 2}
	prefs := [][]int{{1, 7}, {0}, {-1, 3, 0}, {2}}
	_ = RoommateBlockingPairs(match, prefs)
}

func TestStableRoommatesAgainstBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	stable, unstable := 0, 0
	for trial := 0; trial < 300; trial++ {
		n := 4 + 2*r.Intn(3) // 4, 6, or 8
		prefs := make([][]int, n)
		for i := range prefs {
			others := make([]int, 0, n-1)
			for j := 0; j < n; j++ {
				if j != i {
					others = append(others, j)
				}
			}
			r.Shuffle(len(others), func(a, b int) {
				others[a], others[b] = others[b], others[a]
			})
			prefs[i] = others
		}
		match, err := classicRoommates(prefs)
		exists := bruteStable(prefs)
		if err == nil {
			stable++
			if !exists {
				t.Fatalf("trial %d: algorithm found a matching but brute force says none exists", trial)
			}
			if bp := RoommateBlockingPairs(match, prefs); len(bp) != 0 {
				t.Fatalf("trial %d: returned matching has blocking pairs %v", trial, bp)
			}
		} else {
			unstable++
			if exists {
				t.Fatalf("trial %d: algorithm claims no stable matching but brute force found one\nprefs: %v", trial, prefs)
			}
		}
	}
	if stable == 0 || unstable == 0 {
		t.Errorf("random instances should cover both outcomes: stable=%d unstable=%d",
			stable, unstable)
	}
}

func TestStableRoommatesLargeInstance(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	n := 200
	prefs := make([][]int, n)
	for i := range prefs {
		others := make([]int, 0, n-1)
		for j := 0; j < n; j++ {
			if j != i {
				others = append(others, j)
			}
		}
		r.Shuffle(len(others), func(a, b int) {
			others[a], others[b] = others[b], others[a]
		})
		prefs[i] = others
	}
	match, err := classicRoommates(prefs)
	if err != nil {
		var nse *NoStableError
		if !errors.As(err, &nse) {
			t.Fatalf("unexpected error type: %v", err)
		}
		return // no stable matching for this seed: a legitimate outcome
	}
	if err := match.Validate(); err != nil {
		t.Fatal(err)
	}
	if bp := RoommateBlockingPairs(match, prefs); len(bp) != 0 {
		t.Errorf("large instance unstable: %d blocking pairs", len(bp))
	}
}

func TestRoommateBlockingPairsUnmatchedAgents(t *testing.T) {
	prefs := [][]int{
		{1, 2, 3},
		{0, 2, 3},
		{3, 0, 1},
		{2, 0, 1},
	}
	// Nobody matched: every mutually-preferring pair blocks.
	match := Matching{Unmatched, Unmatched, Unmatched, Unmatched}
	bp := RoommateBlockingPairs(match, prefs)
	if len(bp) != 6 {
		t.Errorf("all-unmatched should make every pair blocking, got %v", bp)
	}
}

// BenchmarkStableRoommatesCore measures Irving's algorithm on random
// 500-agent instances (counting both solved and provably unstable runs).
func BenchmarkStableRoommatesCore(b *testing.B) {
	r := rand.New(rand.NewSource(5))
	n := 500
	prefs := make([][]int, n)
	for i := range prefs {
		others := make([]int, 0, n)
		for j := 0; j < n; j++ {
			if j != i {
				others = append(others, j)
			}
		}
		r.Shuffle(len(others), func(a, c int) { others[a], others[c] = others[c], others[a] })
		prefs[i] = append(others, i) // the owner's own entry, struck before the first proposal
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, _ = stableRoommates(prefs)
	}
}
