package shard

import (
	"context"
	"encoding/json"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"cooper/internal/matching"
	"cooper/internal/policy"
	"cooper/internal/telemetry"
	"cooper/internal/workload"
)

// testJobs builds a synthetic population cycling over the given names.
func testJobs(n int, names ...string) ([]workload.Job, []int) {
	jobs := make([]workload.Job, n)
	idx := make([]int, n)
	for i := range jobs {
		k := i % len(names)
		jobs[i] = workload.Job{Name: names[k], BandwidthGBps: float64(k+1) * 3}
		idx[i] = k
	}
	return jobs, idx
}

// testMatrix is a deterministic job-level penalty matrix over k jobs.
func testMatrix(k int) [][]float64 {
	m := make([][]float64, k)
	for i := range m {
		m[i] = make([]float64, k)
		for j := range m[i] {
			m[i][j] = 0.05 + 0.1*float64(i) + 0.03*float64(j)
		}
	}
	return m
}

func TestRingPartitionCoverage(t *testing.T) {
	jobs, _ := testJobs(500, "a", "b", "c", "d")
	for _, shards := range []int{1, 3, 8} {
		ring := NewRing(shards)
		shardOf, groups := ring.PartitionIDs(jobs, nil)
		seen := make(map[int]int)
		for s, g := range groups {
			for _, i := range g {
				seen[i]++
				if shardOf[i] != s {
					t.Fatalf("shards=%d: agent %d in group %d but shardOf=%d", shards, i, s, shardOf[i])
				}
			}
		}
		if len(seen) != len(jobs) {
			t.Fatalf("shards=%d: %d agents covered, want %d", shards, len(seen), len(jobs))
		}
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("shards=%d: agent %d appears %d times", shards, i, c)
			}
		}
	}
}

func TestRingStableAssignment(t *testing.T) {
	// The same agent maps to the same shard on independently built rings.
	a, b := NewRing(16), NewRing(16)
	for i := 0; i < 100; i++ {
		job := workload.Job{Name: "job", BandwidthGBps: float64(i)}
		if a.ShardOf(job, i) != b.ShardOf(job, i) {
			t.Fatalf("agent %d unstable: %d vs %d", i, a.ShardOf(job, i), b.ShardOf(job, i))
		}
	}
}

func TestRingBalance(t *testing.T) {
	jobs, _ := testJobs(4000, "a", "b", "c", "d", "e")
	_, groups := NewRing(8).PartitionIDs(jobs, nil)
	for s, g := range groups {
		if len(g) < 100 {
			t.Errorf("shard %d has only %d of 4000 agents", s, len(g))
		}
	}
}

func TestClearDeterministicAcrossWorkers(t *testing.T) {
	jobs, idx := testJobs(120, "a", "b", "c", "d", "e", "f")
	matrix := testMatrix(6)
	var base *Result
	for _, workers := range []int{1, 4, 8} {
		m := &Market{
			Shards: 4, Policy: policy.StableMarriageRandom{},
			Workers: workers, Seed: 17,
		}
		res, err := m.Clear(context.Background(), jobs, idx, matrix)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if base == nil {
			base = res
			continue
		}
		if !reflect.DeepEqual(res, base) {
			t.Fatalf("workers=%d: result differs from workers=1", workers)
		}
	}
}

func TestClearEventsAndCoverage(t *testing.T) {
	jobs, idx := testJobs(90, "a", "b", "c")
	matrix := testMatrix(3)
	tel := telemetry.New()
	m := &Market{
		Shards: 4, Policy: policy.StableMarriageRandom{},
		Seed: 5, Epoch: 2, Tel: tel,
	}
	res, err := m.Clear(context.Background(), jobs, idx, matrix)
	if err != nil {
		t.Fatal(err)
	}
	// Matching must be a valid involution over the population.
	for i, j := range res.Match {
		if j == matching.Unmatched {
			continue
		}
		if res.Match[j] != i {
			t.Fatalf("match not symmetric at %d: %d -> %d -> %d", i, j, j, res.Match[j])
		}
	}
	var shardEvents int
	covered := make(map[int]bool)
	for _, e := range tel.Events.Events() {
		switch e.Type {
		case telemetry.EventShardMatched:
			shardEvents++
			if e.Epoch != 2 {
				t.Errorf("shard_matched epoch = %d, want 2", e.Epoch)
			}
			var members []int
			if err := json.Unmarshal([]byte(e.Data), &members); err != nil {
				t.Fatalf("shard_matched data: %v", err)
			}
			if len(members) != int(e.Value) {
				t.Errorf("shard %d: %d members but Value=%v", e.Round, len(members), e.Value)
			}
			for _, a := range members {
				if covered[a] {
					t.Errorf("agent %d in two shards", a)
				}
				covered[a] = true
			}
		case telemetry.EventRefinementRound:
			var pairs [][2]int
			if err := json.Unmarshal([]byte(e.Data), &pairs); err != nil {
				t.Fatalf("refinement_round data: %v", err)
			}
			if len(pairs) != int(e.Value) {
				t.Errorf("round %d: %d trades but Value=%v", e.Round, len(pairs), e.Value)
			}
		}
	}
	if shardEvents != 4 {
		t.Fatalf("shard_matched events = %d, want 4", shardEvents)
	}
	if len(covered) != len(jobs) {
		t.Fatalf("shard events cover %d agents, want %d", len(covered), len(jobs))
	}
}

func TestClearUsesWireIDs(t *testing.T) {
	jobs, idx := testJobs(20, "a", "b")
	matrix := testMatrix(2)
	ids := make([]int, len(jobs))
	for i := range ids {
		ids[i] = 1000 + i
	}
	tel := telemetry.New()
	m := &Market{Shards: 2, Policy: policy.Greedy{}, Seed: 1, IDs: ids, Tel: tel}
	if _, err := m.Clear(context.Background(), jobs, idx, matrix); err != nil {
		t.Fatal(err)
	}
	for _, e := range tel.Events.Events() {
		if e.Type != telemetry.EventShardMatched {
			continue
		}
		var members []int
		if err := json.Unmarshal([]byte(e.Data), &members); err != nil {
			t.Fatal(err)
		}
		for _, a := range members {
			if a < 1000 {
				t.Fatalf("shard event carries index %d, want wire ID", a)
			}
		}
	}
}

func TestRefineTradesBlockingPair(t *testing.T) {
	// Four agents, two shards. Agents 0 and 2 sit in different shards,
	// each matched expensively within its shard; pairing them is much
	// better for both, so refinement must trade.
	pen := func(i, j int) float64 {
		cost := [][]float64{
			{0, 0.9, 0.1, 0.8},
			{0.9, 0, 0.8, 0.7},
			{0.1, 0.8, 0, 0.9},
			{0.8, 0.7, 0.9, 0},
		}
		return cost[i][j]
	}
	res := &Result{
		Match:   matching.Matching{1, 0, 3, 2},
		ShardOf: []int{0, 0, 1, 1},
		Groups:  [][]int{{0, 1}, {2, 3}},
	}
	m := &Market{Shards: 2}
	m.refine(res, pen)
	if res.RefinementTrades == 0 {
		t.Fatal("no refinement trades applied")
	}
	if res.Match[0] != 2 || res.Match[2] != 0 {
		t.Fatalf("expected 0-2 pairing, got match %v", res.Match)
	}
	// The abandoned partners 1 and 3 pair with each other.
	if res.Match[1] != 3 || res.Match[3] != 1 {
		t.Fatalf("abandoned partners not paired: %v", res.Match)
	}
}

func TestRefineRespectsAlpha(t *testing.T) {
	pen := func(i, j int) float64 {
		cost := [][]float64{
			{0, 0.5, 0.45, 0.6},
			{0.5, 0, 0.6, 0.6},
			{0.45, 0.6, 0, 0.5},
			{0.6, 0.6, 0.5, 0},
		}
		return cost[i][j]
	}
	res := &Result{
		Match:   matching.Matching{1, 0, 3, 2},
		ShardOf: []int{0, 0, 1, 1},
		Groups:  [][]int{{0, 1}, {2, 3}},
	}
	// Gain for the 0-2 trade is 0.05 per side; alpha 0.1 forbids it.
	m := &Market{Shards: 2, Alpha: 0.1}
	m.refine(res, pen)
	if res.RefinementTrades != 0 {
		t.Fatalf("trade applied despite alpha: %v", res.Match)
	}
}

func TestJobIndices(t *testing.T) {
	catalog := []workload.Job{{Name: "a"}, {Name: "b"}}
	idx, err := JobIndices(catalog, []string{"b", "a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(idx, []int{1, 0, 1}) {
		t.Fatalf("idx = %v", idx)
	}
	if _, err := JobIndices(catalog, []string{"nope"}); err == nil {
		t.Fatal("unknown job accepted")
	}
}

func TestClearValidation(t *testing.T) {
	jobs, idx := testJobs(4, "a")
	m := &Market{Shards: 2, Policy: policy.Greedy{}}
	if _, err := m.Clear(context.Background(), jobs, idx[:2], testMatrix(1)); err == nil {
		t.Error("short jobIdx accepted")
	}
	if _, err := m.Clear(context.Background(), jobs, []int{0, 0, 0, 5}, testMatrix(1)); err == nil {
		t.Error("out-of-range job index accepted")
	}
	m.Policy = nil
	if _, err := m.Clear(context.Background(), jobs, idx, testMatrix(1)); err == nil {
		t.Error("nil policy accepted")
	}
}

// TestDissatisfiedIsTheSortsHead: the bounded selection returns exactly
// the first refinementCandidates agents of the full sort — penalty
// descending, index ascending — with their penalties, on tie-heavy
// matchings around the bound and well past it, and on an all-solo
// matching, where every penalty is 0 and the order is index order.
func TestDissatisfiedIsTheSortsHead(t *testing.T) {
	r := rand.New(rand.NewSource(36))
	for _, n := range []int{0, 1, 127, 128, 129, 2000} {
		for _, solo := range []bool{false, true} {
			jobIdx := make([]int, n)
			for i := range jobIdx {
				jobIdx[i] = r.Intn(4)
			}
			matrix := make([][]float64, 4)
			for a := range matrix {
				matrix[a] = make([]float64, 4)
				for b := range matrix[a] {
					matrix[a][b] = float64(r.Intn(3)) * 0.1
				}
			}
			pen := func(i, j int) float64 { return matrix[jobIdx[i]][jobIdx[j]] }
			match := make(matching.Matching, n)
			for i := range match {
				match[i] = matching.Unmatched
			}
			if !solo {
				perm := r.Perm(n)
				for k := 0; k+1 < n; k += 2 {
					if r.Intn(5) > 0 {
						match[perm[k]], match[perm[k+1]] = perm[k+1], perm[k]
					}
				}
			}

			order := make([]int, n)
			for i := range order {
				order[i] = i
			}
			sort.Slice(order, func(a, b int) bool {
				pa, pb := current(order[a], match, pen), current(order[b], match, pen)
				if pa != pb {
					return pa > pb
				}
				return order[a] < order[b]
			})
			want := order[:min(n, refinementCandidates)]

			got := dissatisfied(match, pen)
			if len(got) != len(want) {
				t.Fatalf("n=%d solo=%v: %d candidates, want %d", n, solo, len(got), len(want))
			}
			for k, c := range got {
				if c.i != want[k] || c.p != current(c.i, match, pen) {
					t.Fatalf("n=%d solo=%v: candidate %d is %+v, want agent %d at penalty %v",
						n, solo, k, c, want[k], current(want[k], match, pen))
				}
			}
		}
	}
}

// TestUnobservedClearBuildsNoPayloads pins that a clear whose telemetry
// has no event ring builds no shard_matched payloads: it allocates at
// least one object per shard fewer than the same clear recording them.
func TestUnobservedClearBuildsNoPayloads(t *testing.T) {
	const shards = 8
	jobs, idx := testJobs(400, "a", "b", "c", "d", "e")
	matrix := testMatrix(5)
	allocs := func(tel *telemetry.Telemetry) float64 {
		m := &Market{Shards: shards, Policy: policy.StableMarriageRandom{}, Workers: 1, Seed: 5, Tel: tel}
		return testing.AllocsPerRun(5, func() {
			if _, err := m.Clear(context.Background(), jobs, idx, matrix); err != nil {
				t.Fatal(err)
			}
		})
	}
	unobserved := telemetry.New()
	unobserved.Events = nil
	if got, want := allocs(unobserved), allocs(telemetry.New()); got > want-shards {
		t.Fatalf("an unobserved clear allocated %.0f objects, an observed one %.0f: want at least %d fewer", got, want, shards)
	}
}
