package game

import (
	"math/rand"
	"testing"

	"cooper/internal/matching"
)

func figure2Penalties() [][]float64 {
	return [][]float64{
		{0.00, 0.02, 0.10, 0.15},
		{0.03, 0.00, 0.12, 0.20},
		{0.08, 0.09, 0.00, 0.11},
		{0.05, 0.07, 0.06, 0.00},
	}
}

func TestFindBlockingCoalitionPair(t *testing.T) {
	// The Figure 2 scenario: {AD, BC} is blocked by the pair {A, B}.
	d := figure2Penalties()
	m := matching.Matching{3, 2, 1, 0}
	bc, err := FindBlockingCoalition(m, d, 0, 2, SharedHardware)
	if err != nil {
		t.Fatal(err)
	}
	if bc == nil {
		t.Fatal("expected a blocking pair")
	}
	if len(bc.Agents) != 2 || bc.Agents[0] != 0 || bc.Agents[1] != 1 {
		t.Errorf("coalition = %v, want {0,1}", bc.Agents)
	}
	if bc.MinGain <= 0 {
		t.Errorf("min gain = %v", bc.MinGain)
	}
	// Under shared hardware the pair must actually re-pair, not split.
	if bc.Rematch[0] != 1 || bc.Rematch[1] != 0 {
		t.Errorf("rematch = %v, want the two pairing up", bc.Rematch)
	}
}

func TestCoalitionStableMatchingSharedHardware(t *testing.T) {
	d := figure2Penalties()
	m := matching.Matching{1, 0, 3, 2} // {AB, CD}: pairwise stable
	bc, err := FindBlockingCoalition(m, d, 0, 4, SharedHardware)
	if err != nil {
		t.Fatal(err)
	}
	if bc != nil {
		t.Errorf("{AB, CD} should be coalition-stable under shared hardware, blocked by %+v", bc)
	}
}

func TestPrivateHardwareIsStrictlyStronger(t *testing.T) {
	// No classic blocking pair, but with private hardware a badly matched
	// pair blocks by splitting up to run solo.
	d := [][]float64{
		{0.00, 0.30, 0.10, 0.40},
		{0.30, 0.00, 0.40, 0.40},
		{0.40, 0.40, 0.00, 0.05},
		{0.40, 0.40, 0.05, 0.00},
	}
	m := matching.Matching{1, 0, 3, 2}
	if pairs := matching.Dense(d).BlockingPairs(m, 0); len(pairs) != 0 {
		t.Fatalf("unexpected classic blocking pairs %v", pairs)
	}
	bc, err := FindBlockingCoalition(m, d, 0, 4, SharedHardware)
	if err != nil {
		t.Fatal(err)
	}
	if bc != nil {
		t.Errorf("no feasible re-pairing should block under shared hardware, blocked by %+v", bc)
	}
	bc, err = FindBlockingCoalition(m, d, 0, 2, PrivateHardware)
	if err != nil {
		t.Fatal(err)
	}
	if bc == nil {
		t.Fatal("private hardware should let agents 0 and 1 split up")
	}
	for _, b := range bc.Rematch {
		if b != matching.Unmatched {
			t.Errorf("expected solo escapes, got rematch %v", bc.Rematch)
		}
	}
}

func TestSharedHardwareCollapsesToPairStability(t *testing.T) {
	// The theoretical note behind the paper counting blocking pairs: under
	// the shared-hardware model, a blocking coalition of any size exists
	// iff a blocking pair exists (any beneficial internal re-pairing
	// contains a pair that blocks on its own).
	r := rand.New(rand.NewSource(92))
	for trial := 0; trial < 40; trial++ {
		n := 8
		d := make([][]float64, n)
		for i := range d {
			d[i] = make([]float64, n)
			for j := range d[i] {
				if i != j {
					d[i][j] = r.Float64()
				}
			}
		}
		m := make(matching.Matching, n)
		perm := r.Perm(n)
		for k := 0; k < n; k += 2 {
			m[perm[k]], m[perm[k+1]] = perm[k+1], perm[k]
		}
		pairs := matching.Dense(d).BlockingPairs(m, 0)
		bc, err := FindBlockingCoalition(m, d, 0, 6, SharedHardware)
		if err != nil {
			t.Fatal(err)
		}
		if (len(pairs) > 0) != (bc != nil) {
			t.Fatalf("trial %d: pairs=%d coalition=%v — equivalence violated",
				trial, len(pairs), bc)
		}
	}
}

func TestFindBlockingCoalitionAlphaSuppresses(t *testing.T) {
	d := figure2Penalties()
	m := matching.Matching{3, 2, 1, 0}
	bc, err := FindBlockingCoalition(m, d, 0.5, 4, PrivateHardware)
	if err != nil {
		t.Fatal(err)
	}
	if bc != nil {
		t.Errorf("alpha=0.5 should suppress all coalitions, got %v", bc.Agents)
	}
}

func TestFindBlockingCoalitionValidation(t *testing.T) {
	d := [][]float64{{0, 1}, {1, 0}}
	m := matching.Matching{1, 0}
	if _, err := FindBlockingCoalition(m, d, 0, 1, SharedHardware); err == nil {
		t.Error("maxSize 1 accepted")
	}
	if _, err := FindBlockingCoalition(matching.Matching{1, 0, matching.Unmatched}, d, 0, 2, SharedHardware); err == nil {
		t.Error("size mismatch accepted")
	}
	if _, err := FindBlockingCoalition(m, [][]float64{{0, 1}, {1}}, 0, 2, SharedHardware); err == nil {
		t.Error("ragged penalties accepted")
	}
	big := make(matching.Matching, 30)
	bigD := make([][]float64, 30)
	for i := range bigD {
		big[i] = matching.Unmatched
		bigD[i] = make([]float64, 30)
	}
	if _, err := FindBlockingCoalition(big, bigD, 0, 2, SharedHardware); err == nil {
		t.Error("oversized instance accepted")
	}
}
