package matching

import (
	"math/rand"
	"testing"
)

func randomPenalties(r *rand.Rand, n int) [][]float64 {
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
		for j := range d[i] {
			if i != j {
				d[i][j] = r.Float64()
			}
		}
	}
	return d
}

func TestPrefsFromPenalties(t *testing.T) {
	d := [][]float64{
		{0, 0.3, 0.1, 0.2},
		{0.5, 0, 0.5, 0.1},
		{0.9, 0.2, 0, 0.4},
		{0.0, 0.0, 0.0, 0},
	}
	prefs := PrefsFromPenalties(d)
	want := [][]int{
		{2, 3, 1},
		{3, 0, 2}, // tie between 0 and 2 breaks by index
		{1, 3, 0},
		{0, 1, 2}, // all ties break by index
	}
	for i := range want {
		for k := range want[i] {
			if prefs[i][k] != want[i][k] {
				t.Errorf("prefs[%d] = %v, want %v", i, prefs[i], want[i])
				break
			}
		}
	}
}

func TestValidatePenalties(t *testing.T) {
	if err := ValidatePenalties([][]float64{{0, 1}, {1, 0}}); err != nil {
		t.Errorf("square matrix rejected: %v", err)
	}
	if err := ValidatePenalties([][]float64{{0, 1}, {1}}); err == nil {
		t.Error("ragged matrix accepted")
	}
}

func TestAlphaBlockingPairsHandCase(t *testing.T) {
	// The paper's Figure 2 scenario: four users where the performance-
	// optimal colocation {AD, BC} leaves A and B blocking.
	// Penalties chosen so A and B strongly prefer each other.
	d := [][]float64{
		//       A     B     C     D
		/*A*/ {0.00, 0.02, 0.10, 0.15},
		/*B*/ {0.03, 0.00, 0.12, 0.20},
		/*C*/ {0.08, 0.09, 0.00, 0.11},
		/*D*/ {0.05, 0.07, 0.06, 0.00},
	}
	perfOptimal := Matching{3, 2, 1, 0} // {AD, BC}
	bp := Dense(d).BlockingPairs(perfOptimal, 0)
	found := false
	for _, p := range bp {
		if p == [2]int{0, 1} {
			found = true
		}
	}
	if !found {
		t.Errorf("A and B should block {AD, BC}: %v", bp)
	}

	stable := Matching{1, 0, 3, 2} // {AB, CD}
	if bp := Dense(d).BlockingPairs(stable, 0); len(bp) != 0 {
		t.Errorf("{AB, CD} should be stable, blocking: %v", bp)
	}
}

func TestAlphaBlockingPairsMonotoneInAlpha(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		n := 10
		d := randomPenalties(r, n)
		match := make(Matching, n)
		for i := 0; i < n; i += 2 {
			match[i], match[i+1] = i+1, i
		}
		prev := len(Dense(d).BlockingPairs(match, 0))
		for _, alpha := range []float64{0.01, 0.02, 0.05, 0.1, 0.5} {
			cur := len(Dense(d).BlockingPairs(match, alpha))
			if cur > prev {
				t.Fatalf("blocking pairs grew from %d to %d as alpha rose to %v",
					prev, cur, alpha)
			}
			prev = cur
		}
	}
}

func TestAlphaBlockingPairsSoloAgentsNeverBlock(t *testing.T) {
	d := [][]float64{
		{0, 0.1},
		{0.1, 0},
	}
	match := Matching{Unmatched, Unmatched}
	if bp := Dense(d).BlockingPairs(match, 0); len(bp) != 0 {
		t.Errorf("solo agents have nothing to escape, got %v", bp)
	}
}

func TestGreedyPair(t *testing.T) {
	d := [][]float64{
		{0, 0.5, 0.1, 0.9},
		{0.5, 0, 0.2, 0.3},
		{0.1, 0.2, 0, 0.4},
		{0.9, 0.3, 0.4, 0},
	}
	match := Matching{Unmatched, Unmatched, Unmatched, Unmatched}
	GreedyPair([]int{0, 1, 2, 3}, Dense(d), match)
	if err := match.Validate(); err != nil {
		t.Fatal(err)
	}
	// Agent 0 picks its cheapest partner (2, penalty 0.1); 1 and 3 remain.
	if match[0] != 2 || match[1] != 3 {
		t.Errorf("greedy matching = %v, want [2 3 0 1]", match)
	}
}

func TestGreedyPairOddCount(t *testing.T) {
	d := randomPenalties(rand.New(rand.NewSource(32)), 5)
	match := make(Matching, 5)
	for i := range match {
		match[i] = Unmatched
	}
	GreedyPair([]int{0, 1, 2, 3, 4}, Dense(d), match)
	unmatched := 0
	for _, j := range match {
		if j == Unmatched {
			unmatched++
		}
	}
	if unmatched != 1 {
		t.Errorf("odd population should leave exactly one solo, got %d", unmatched)
	}
	if err := match.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAdaptedRoommatesAlwaysPairs(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	for trial := 0; trial < 40; trial++ {
		n := 2 * (2 + r.Intn(20))
		d := randomPenalties(r, n)
		match, fallback, err := AdaptedRoommates(d)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := match.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i, j := range match {
			if j == Unmatched {
				t.Fatalf("trial %d: agent %d unmatched in even population", trial, i)
			}
		}
		if fallback < 0 || fallback > n {
			t.Fatalf("trial %d: fallback count %d out of range", trial, fallback)
		}
	}
}

func TestAdaptedRoommatesOddPopulation(t *testing.T) {
	d := randomPenalties(rand.New(rand.NewSource(34)), 7)
	match, _, err := AdaptedRoommates(d)
	if err != nil {
		t.Fatal(err)
	}
	unmatched := 0
	for _, j := range match {
		if j == Unmatched {
			unmatched++
		}
	}
	if unmatched != 1 {
		t.Errorf("odd population should leave one solo, got %d", unmatched)
	}
}

func TestAdaptedRoommatesStableWhenPossible(t *testing.T) {
	// Construct penalties whose ordinal preferences are Irving's solvable
	// example; the adapted policy must return the stable matching with no
	// fallback.
	prefs := [][]int{
		{3, 5, 1, 4, 2},
		{5, 2, 4, 0, 3},
		{3, 4, 0, 5, 1},
		{1, 5, 4, 0, 2},
		{3, 1, 2, 5, 0},
		{4, 0, 3, 1, 2},
	}
	n := len(prefs)
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
		for pos, j := range prefs[i] {
			d[i][j] = float64(pos+1) / 10
		}
	}
	match, fallback, err := AdaptedRoommates(d)
	if err != nil {
		t.Fatal(err)
	}
	if fallback != 0 {
		t.Errorf("solvable instance used fallback for %d agents", fallback)
	}
	if bp := RoommateBlockingPairs(match, prefs); len(bp) != 0 {
		t.Errorf("blocking pairs: %v", bp)
	}
}

func TestAdaptedRoommatesReducesBlockingPairs(t *testing.T) {
	// The paper claims the adapted SR significantly reduces blocking pairs
	// versus naive pairing. Compare against sequential pairing.
	r := rand.New(rand.NewSource(35))
	var adaptedTotal, naiveTotal int
	for trial := 0; trial < 10; trial++ {
		n := 40
		d := randomPenalties(r, n)
		adapted, _, err := AdaptedRoommates(d)
		if err != nil {
			t.Fatal(err)
		}
		naive := make(Matching, n)
		for i := 0; i < n; i += 2 {
			naive[i], naive[i+1] = i+1, i
		}
		adaptedTotal += len(Dense(d).BlockingPairs(adapted, 0))
		naiveTotal += len(Dense(d).BlockingPairs(naive, 0))
	}
	if adaptedTotal >= naiveTotal {
		t.Errorf("adapted SR blocking pairs %d should beat naive %d",
			adaptedTotal, naiveTotal)
	}
}

func TestAdaptedRoommatesDegenerate(t *testing.T) {
	if _, _, err := AdaptedRoommates([][]float64{{0, 1}, {1}}); err == nil {
		t.Error("ragged matrix accepted")
	}
	match, fallback, err := AdaptedRoommates([][]float64{{0}})
	if err != nil || fallback != 0 || match[0] != Unmatched {
		t.Errorf("singleton: match=%v fallback=%d err=%v", match, fallback, err)
	}
	empty, fallback, err := AdaptedRoommates(nil)
	if err != nil || fallback != 0 || len(empty) != 0 {
		t.Errorf("empty: match=%v fallback=%d err=%v", empty, fallback, err)
	}
}
