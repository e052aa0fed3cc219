package agent

import (
	"math/rand"
	"slices"
	"testing"

	"cooper/internal/matching"
)

func buildAgents(d [][]float64) []*Agent {
	agents := make([]*Agent, len(d))
	for i := range d {
		agents[i] = New(i, "job", d[i])
	}
	return agents
}

func TestExchangeFindsBlockingPair(t *testing.T) {
	// Figure 2's scenario: optimal matching {AD, BC} leaves A and B
	// mutually preferring each other.
	d := [][]float64{
		//       A     B     C     D
		/*A*/ {0.00, 0.02, 0.10, 0.15},
		/*B*/ {0.03, 0.00, 0.12, 0.20},
		/*C*/ {0.08, 0.09, 0.00, 0.11},
		/*D*/ {0.05, 0.07, 0.06, 0.00},
	}
	match := matching.Matching{3, 2, 1, 0} // {AD, BC}
	recs, err := Exchange(buildAgents(d), match, 0)
	if err != nil {
		t.Fatal(err)
	}
	if recs[0].Action != BreakAway || recs[1].Action != BreakAway {
		t.Errorf("A and B should recommend break-away: %+v %+v", recs[0], recs[1])
	}
	if len(recs[0].BlockingPartners) == 0 || recs[0].BlockingPartners[0] != 1 {
		t.Errorf("A's best blocking partner should be B: %v", recs[0].BlockingPartners)
	}
	if gain := recs[0].ExpectedGain; gain != 0.15-0.02 {
		t.Errorf("A's expected gain = %v, want 0.13", gain)
	}
	pairs := BlockingPairsFromRecommendations(recs)
	found := false
	for _, p := range pairs {
		if p == [2]int{0, 1} {
			found = true
		}
	}
	if !found {
		t.Errorf("blocking pairs %v should include {0,1}", pairs)
	}
}

func TestExchangeStableMatchingParticipates(t *testing.T) {
	d := [][]float64{
		{0.00, 0.02, 0.10, 0.15},
		{0.03, 0.00, 0.12, 0.20},
		{0.08, 0.09, 0.00, 0.11},
		{0.05, 0.07, 0.06, 0.00},
	}
	match := matching.Matching{1, 0, 3, 2} // {AB, CD}: stable here
	recs, err := Exchange(buildAgents(d), match, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.Action != Participate {
			t.Errorf("agent %d should participate: %+v", r.AgentID, r)
		}
		if r.ExpectedGain != 0 {
			t.Errorf("participating agent %d has gain %v", r.AgentID, r.ExpectedGain)
		}
	}
}

func TestExchangeAgreesWithAlphaBlockingPairs(t *testing.T) {
	// The distributed protocol must discover exactly the pairs the
	// centralized analysis finds.
	r := rand.New(rand.NewSource(61))
	for trial := 0; trial < 20; trial++ {
		n := 2 * (2 + r.Intn(10))
		d := make([][]float64, n)
		for i := range d {
			d[i] = make([]float64, n)
			for j := range d[i] {
				if i != j {
					d[i][j] = r.Float64()
				}
			}
		}
		match := make(matching.Matching, n)
		perm := r.Perm(n)
		for k := 0; k < n; k += 2 {
			match[perm[k]], match[perm[k+1]] = perm[k+1], perm[k]
		}
		for _, alpha := range []float64{0, 0.02, 0.1} {
			recs, err := Exchange(buildAgents(d), match, alpha)
			if err != nil {
				t.Fatal(err)
			}
			got := BlockingPairsFromRecommendations(recs)
			want := matching.Dense(d).BlockingPairs(match, alpha)
			if len(got) != len(want) {
				t.Fatalf("trial %d alpha %v: exchange found %d pairs, analysis %d",
					trial, alpha, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d: pair mismatch %v vs %v", trial, got[i], want[i])
				}
			}
		}
	}
}

func TestExchangeAlphaSuppressesSmallGains(t *testing.T) {
	d := [][]float64{
		{0.00, 0.09, 0.10},
		{0.09, 0.00, 0.10},
		{0.10, 0.10, 0.00},
	}
	match := matching.Matching{2, matching.Unmatched, 0}
	// A prefers B by 0.01; with alpha 0.05 the improvement is too small.
	recs, err := Exchange(buildAgents(d), match, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.Action != Participate {
			t.Errorf("alpha should suppress marginal gains: %+v", r)
		}
	}
}

func TestExchangeUnmatchedAgentsNeverBreakAway(t *testing.T) {
	d := [][]float64{
		{0, 0.5},
		{0.5, 0},
	}
	match := matching.Matching{matching.Unmatched, matching.Unmatched}
	recs, err := Exchange(buildAgents(d), match, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.Action != Participate {
			t.Errorf("solo agent should participate: %+v", r)
		}
	}
}

func TestExchangeValidation(t *testing.T) {
	d := [][]float64{{0, 0.1}, {0.1, 0}}
	agents := buildAgents(d)
	if _, err := Exchange(agents, matching.Matching{1}, 0); err == nil {
		t.Error("size mismatch accepted")
	}
	agents[1].ID = 5
	if _, err := Exchange(agents, matching.Matching{1, 0}, 0); err == nil {
		t.Error("misnumbered agent accepted")
	}
	agents[1].ID = 1
	agents[1].Penalties = []float64{0.1}
	if _, err := Exchange(agents, matching.Matching{1, 0}, 0); err == nil {
		t.Error("short penalty row accepted")
	}
}

func TestActionString(t *testing.T) {
	if Participate.String() != "participate" || BreakAway.String() != "break-away" {
		t.Error("action names wrong")
	}
	if Action(9).String() == "" {
		t.Error("unknown action should still format")
	}
}

// referenceBlockingPairs is BlockingPairsFromRecommendations as it stood
// before the counting sort: one key per listing, sorted globally, repeats
// dropped.
func referenceBlockingPairs(recs []Recommendation) [][2]int {
	var keys []uint64
	for _, r := range recs {
		for _, j := range r.BlockingPartners {
			keys = append(keys, uint64(min(r.AgentID, j))<<32|uint64(max(r.AgentID, j)))
		}
	}
	slices.Sort(keys)
	keys = slices.Compact(keys)
	pairs := make([][2]int, len(keys))
	for k, key := range keys {
		pairs[k] = [2]int{int(key >> 32), int(uint32(key))}
	}
	return pairs
}

// TestBlockingPairsMatchReference holds the bucketed reconstruction
// equal to the sort-and-compact one on random listings: mutual pairs
// listed from both ends, pairs a capped list names from one end only,
// agents listing nobody, and recommendations in shuffled order.
func TestBlockingPairsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(60)
		recs := make([]Recommendation, n)
		for i := range recs {
			recs[i].AgentID = i
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Intn(4) != 0 {
					continue
				}
				// One pair in three is listed from one end only, as when
				// the other end's list was capped before reaching it.
				switch rng.Intn(6) {
				case 0:
					recs[i].BlockingPartners = append(recs[i].BlockingPartners, j)
				case 1:
					recs[j].BlockingPartners = append(recs[j].BlockingPartners, i)
				default:
					recs[i].BlockingPartners = append(recs[i].BlockingPartners, j)
					recs[j].BlockingPartners = append(recs[j].BlockingPartners, i)
				}
			}
		}
		for i := range recs { // partners are listed best first, not by ID
			p := recs[i].BlockingPartners
			rng.Shuffle(len(p), func(a, b int) { p[a], p[b] = p[b], p[a] })
		}
		rng.Shuffle(n, func(a, b int) { recs[a], recs[b] = recs[b], recs[a] })
		got, want := BlockingPairsFromRecommendations(recs), referenceBlockingPairs(recs)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d (n=%d): pairs %v, reference %v", trial, n, got, want)
		}
	}
	for _, empty := range [][]Recommendation{nil, {}, {{AgentID: 3}}} {
		if got := BlockingPairsFromRecommendations(empty); got == nil || len(got) != 0 {
			t.Errorf("no listings: pairs = %#v, want empty and non-nil", got)
		}
	}
}
