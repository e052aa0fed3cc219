package rematch

import (
	"cmp"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"

	"cooper/internal/agent"
	"cooper/internal/matching"
	"cooper/internal/policy"
)

// testMatrix is a deterministic job-level penalty matrix over k classes
// with all off-diagonal entries distinct.
func testMatrix(k int) [][]float64 {
	m := make([][]float64, k)
	for i := range m {
		m[i] = make([]float64, k)
		for j := range m[i] {
			m[i][j] = 0.05 + 0.13*float64(i) + 0.031*float64(j)
		}
	}
	return m
}

// penFor adapts a job-level matrix to an agent-level lookup.
func penFor(jobIdx []int, matrix [][]float64) func(i, j int) float64 {
	return func(i, j int) float64 { return matrix[jobIdx[i]][jobIdx[j]] }
}

func TestLedgerApplyJoinsAndDepartures(t *testing.T) {
	var l Ledger

	// Cold start: four joiners, everybody dirty, a full clear is due.
	d, err := l.Apply([]int{0, 1, 0, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Agents) != 4 || len(d.Joined) != 4 || len(d.Dirty) != 4 {
		t.Fatalf("cold delta = %+v", d)
	}
	if !l.FullDue(0.10) {
		t.Error("never-cleared ledger should force a full clear")
	}
	if err := l.Commit(matching.Matching{1, 0, 3, 2}, true); err != nil {
		t.Fatal(err)
	}
	if churn, baseN := l.Churn(); churn != 0 || baseN != 4 {
		t.Fatalf("after full commit churn=%d baseN=%d", churn, baseN)
	}
	if l.FullDue(0.10) {
		t.Error("freshly cleared ledger should not be due")
	}

	// Agent 0 departs: its partner (ID 1) is displaced and dirty; the
	// pair 2+3 is untouched.
	d, err = l.Apply(nil, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(d.Agents); got != 3 {
		t.Fatalf("post-departure population = %d", got)
	}
	if !reflect.DeepEqual(d.Departed, []int{0}) {
		t.Fatalf("Departed = %v", d.Departed)
	}
	// Survivors keep order: IDs 1, 2, 3 at indices 0, 1, 2. Only index 0
	// (ID 1) is dirty.
	if !reflect.DeepEqual(d.Dirty, []int{0}) {
		t.Fatalf("Dirty = %v", d.Dirty)
	}
	if d.Prev[0] != matching.Unmatched {
		t.Fatalf("displaced agent carries prev partner %d", d.Prev[0])
	}
	if d.Prev[1] != 2 || d.Prev[2] != 1 {
		t.Fatalf("untouched pair remapped wrong: %v", d.Prev)
	}
	if churn, _ := l.Churn(); churn != 1 {
		t.Fatalf("churn after one departure = %d", churn)
	}

	// A join appends under a fresh ID, never reusing 0.
	d, err = l.Apply([]int{1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	joiner := d.Agents[d.Joined[0]]
	if joiner.ID != 4 {
		t.Fatalf("joiner got recycled ID %d", joiner.ID)
	}
	if churn, _ := l.Churn(); churn != 2 {
		t.Fatalf("cumulative churn = %d", churn)
	}
}

func TestLedgerApplyErrors(t *testing.T) {
	var l Ledger
	if _, err := l.Apply(nil, []int{7}); err == nil {
		t.Error("depart of unknown agent accepted")
	}
	if _, err := l.Apply([]int{0, 0}, nil); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(matching.Matching{1, 0}, true); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Apply(nil, []int{0, 0}); err == nil {
		t.Error("duplicate depart accepted")
	}
	// Failed Apply leaves the ledger untouched.
	if l.Len() != 2 {
		t.Fatalf("ledger mutated on error: len=%d", l.Len())
	}
	if err := l.Commit(matching.Matching{0}, false); err == nil {
		t.Error("short commit accepted")
	}
}

func TestFullDueThreshold(t *testing.T) {
	var l Ledger
	if _, err := l.Apply(make([]int, 20), nil); err != nil {
		t.Fatal(err)
	}
	m := make(matching.Matching, 20)
	for i := range m {
		if i%2 == 0 {
			m[i] = i + 1
		} else {
			m[i] = i - 1
		}
	}
	if err := l.Commit(m, true); err != nil {
		t.Fatal(err)
	}
	// 2/20 churn: exactly at the 10% default, not beyond it.
	if _, err := l.Apply([]int{0, 0}, nil); err != nil {
		t.Fatal(err)
	}
	if l.FullDue(0) {
		t.Error("churn equal to threshold should not force a full clear")
	}
	if _, err := l.Apply([]int{0}, nil); err != nil {
		t.Fatal(err)
	}
	if !l.FullDue(0) {
		t.Error("churn beyond threshold should force a full clear")
	}
	if l.FullDue(0.5) {
		t.Error("looser threshold should still be under budget")
	}
}

func TestNeighborhoodClosureAndTopK(t *testing.T) {
	// Six agents over three classes, paired (0,1) (2,3) (4,5); agent 0
	// is dirty.
	jobIdx := []int{0, 1, 2, 0, 1, 2}
	matrix := testMatrix(3)
	pen := penFor(jobIdx, matrix)
	prev := matching.Matching{matching.Unmatched, 3, 5, 1, matching.Unmatched, 2}

	nbhd := Neighborhood([]int{0}, nil, prev, pen, 2)
	inN := make(map[int]bool)
	for _, i := range nbhd {
		inN[i] = true
	}
	if !inN[0] {
		t.Fatalf("dirty agent missing from neighborhood %v", nbhd)
	}
	// Closure: every member's prev partner is a member.
	for _, i := range nbhd {
		if p := prev[i]; p != matching.Unmatched && !inN[p] {
			t.Fatalf("neighborhood %v not closed: %d's partner %d missing", nbhd, i, p)
		}
	}
	if !sort.IntsAreSorted(nbhd) {
		t.Fatalf("neighborhood not ascending: %v", nbhd)
	}

	// With a huge K everyone is pulled in.
	all := Neighborhood([]int{0}, nil, prev, pen, 100)
	if len(all) != 6 {
		t.Fatalf("topK=100 neighborhood = %v, want all 6", all)
	}

	// Restricting the pool excludes members whose partner is outside it:
	// 1 is paired with 3, and 3 is outside the pool, so 1 cannot be a
	// candidate — but 5's partner 2 is in the pool.
	pool := Neighborhood([]int{0}, &Pool{Members: []int{0, 1, 2, 5}, ShardOf: []int{0, 0, 0, 1, 1, 0}, Shard: 0}, prev, pen, 100)
	for _, i := range pool {
		if i == 1 || i == 3 {
			t.Fatalf("pool-restricted neighborhood %v pulled in %d", pool, i)
		}
	}
}

// neighborhoodReference reads Neighborhood's doc comment literally: the
// dirty agents, each one's top-K eligible candidates by (penalty,
// index) from a full sort, and the prev partners of all of them. An
// agent is eligible when it is in the pool and so is its prev partner,
// if it has one.
func neighborhoodReference(dirty []int, pool *Pool, prev matching.Matching, pen func(i, j int) float64, topK int) []int {
	inPool := func(j int) bool { return pool == nil || pool.ShardOf[j] == pool.Shard }
	in := make(map[int]bool)
	for _, i := range dirty {
		in[i] = true
		var cands []int
		for j := range prev {
			if j != i && inPool(j) && (prev[j] == matching.Unmatched || inPool(prev[j])) {
				cands = append(cands, j)
			}
		}
		sort.Slice(cands, func(a, b int) bool {
			pa, pb := pen(i, cands[a]), pen(i, cands[b])
			return pa < pb || pa == pb && cands[a] < cands[b]
		})
		for _, j := range cands[:min(TopKOrDefault(topK), len(cands))] {
			in[j] = true
		}
	}
	var nbhd []int
	for i := range in {
		nbhd = append(nbhd, i)
		if p := prev[i]; p != matching.Unmatched && !in[p] {
			nbhd = append(nbhd, p)
		}
	}
	sort.Ints(nbhd)
	return slices.Compact(nbhd)
}

// TestNeighborhoodMatchesReference holds Neighborhood to its reading
// over random shard partitions, tie-heavy class rows (penalties from
// {0, ¼, ½, ¾}) and partial matchings whose pairs cross shards, with and
// without a pool, at small K and the default.
func TestNeighborhoodMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 500; trial++ {
		n, classes, shards := 1+rng.Intn(60), 1+rng.Intn(5), 1+rng.Intn(4)
		matrix := make([][]float64, classes)
		for a := range matrix {
			matrix[a] = make([]float64, classes)
			for b := range matrix[a] {
				matrix[a][b] = float64(rng.Intn(4)) / 4
			}
		}
		jobIdx, shardOf := make([]int, n), make([]int, n)
		for i := range jobIdx {
			jobIdx[i], shardOf[i] = rng.Intn(classes), rng.Intn(shards)
		}
		prev := make(matching.Matching, n)
		for i := range prev {
			prev[i] = matching.Unmatched
		}
		for _, i := range rng.Perm(n) {
			if j := rng.Intn(n); prev[i] == matching.Unmatched && prev[j] == matching.Unmatched && i != j && rng.Intn(4) != 0 {
				prev[i], prev[j] = j, i
			}
		}
		var pool *Pool
		candidates := nbhdAll(n)
		if rng.Intn(4) != 0 {
			pool = &Pool{ShardOf: shardOf, Shard: rng.Intn(shards)}
			for i, s := range shardOf {
				if s == pool.Shard {
					pool.Members = append(pool.Members, i)
				}
			}
			candidates = pool.Members
		}
		// Dirty agents come from the pool, solo as a repair's are, or
		// still paired.
		var dirty []int
		for _, i := range candidates {
			if rng.Intn(3) == 0 {
				dirty = append(dirty, i)
			}
		}
		topK := []int{1, 2, 3, 5, 0}[rng.Intn(5)]
		pen := penFor(jobIdx, matrix)
		got := Neighborhood(dirty, pool, prev, pen, topK)
		want := neighborhoodReference(dirty, pool, prev, pen, topK)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: n=%d shards=%d K=%d pool=%+v dirty=%v prev=%v jobs=%v matrix=%v\n got %v\nwant %v",
				trial, n, shards, topK, pool, dirty, prev, jobIdx, matrix, got, want)
		}
	}
}

func TestRewirePreservesOutsidePairs(t *testing.T) {
	jobIdx := []int{0, 1, 2, 0, 1, 2, 0, 1}
	matrix := testMatrix(3)
	bw := make([]float64, len(jobIdx))
	for i := range bw {
		bw[i] = 1 + float64(i)
	}
	prev := matching.Matching{1, 0, 3, 2, 5, 4, 7, 6}
	nbhd := []int{0, 1, 2, 3} // closed under prev partnership

	match, changed, err := Rewire(nbhd, prev, matching.Penalties{Matrix: matrix, Class: jobIdx}, bw, policy.Greedy{}, rand.New(rand.NewSource(1)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := match.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{4, 5, 6, 7} {
		if match[i] != prev[i] {
			t.Fatalf("outside pair broken: agent %d now %d", i, match[i])
		}
	}
	for _, i := range changed {
		if i >= 4 {
			t.Fatalf("changed %v lists an outside agent", changed)
		}
		if match[i] == prev[i] {
			t.Fatalf("agent %d listed changed but kept partner %d", i, match[i])
		}
	}
	for _, i := range nbhd {
		if match[i] != prev[i] {
			found := false
			for _, c := range changed {
				if c == i {
					found = true
				}
			}
			if !found {
				t.Fatalf("agent %d changed (%d -> %d) but not listed", i, prev[i], match[i])
			}
		}
	}
}

func TestRepairerEndToEnd(t *testing.T) {
	matrix := testMatrix(4)
	var l Ledger
	jobs := make([]int, 40)
	for i := range jobs {
		jobs[i] = i % 4
	}
	d, err := l.Apply(jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	jobIdx := make([]int, len(d.Agents))
	bw := make([]float64, len(d.Agents))
	for i, a := range d.Agents {
		jobIdx[i] = a.Job
		bw[i] = float64(a.Job + 1)
	}
	full, _, err := Rewire(nbhdAll(len(d.Agents)), d.Prev, matching.Penalties{Matrix: matrix, Class: jobIdx}, bw, policy.Greedy{}, rand.New(rand.NewSource(7)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(full, true); err != nil {
		t.Fatal(err)
	}

	// One departure, one join: repair the standing matching.
	d, err = l.Apply([]int{2}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	jobIdx = jobIdx[:0]
	bw = bw[:0]
	for _, a := range d.Agents {
		jobIdx = append(jobIdx, a.Job)
		bw = append(bw, float64(a.Job+1))
	}
	nbhd := Neighborhood(d.Dirty, nil, d.Prev, penFor(jobIdx, matrix), 4)
	match, _, err := Rewire(nbhd, d.Prev, matching.Penalties{Matrix: matrix, Class: jobIdx}, bw, policy.Greedy{}, rand.New(rand.NewSource(7)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := match.Validate(); err != nil {
		t.Fatal(err)
	}
	inN := make(map[int]bool)
	for _, i := range nbhd {
		inN[i] = true
	}
	for i := range match {
		if !inN[i] && match[i] != d.Prev[i] {
			t.Fatalf("agent %d outside neighborhood changed partner %d -> %d",
				i, d.Prev[i], match[i])
		}
	}
	if len(nbhd) >= len(d.Agents) {
		t.Fatalf("neighborhood %d not smaller than population %d",
			len(nbhd), len(d.Agents))
	}
	if err := l.Commit(match, false); err != nil {
		t.Fatal(err)
	}
}

func nbhdAll(n int) []int {
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	return all
}

// exchange runs the reference protocol (§IV-B) over the agents×agents
// expansion of the job-level penalties.
func exchange(t *testing.T, jobIdx []int, matrix [][]float64, match matching.Matching, alpha float64) []agent.Recommendation {
	t.Helper()
	agents := make([]*agent.Agent, len(jobIdx))
	for i := range agents {
		row := make([]float64, len(jobIdx))
		for j := range row {
			if i != j {
				row[j] = matrix[jobIdx[i]][jobIdx[j]]
			}
		}
		agents[i] = agent.New(i, "", row)
	}
	recs, err := agent.Exchange(agents, match, alpha)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// randomMatching pairs a random subset of n agents, leaving some solo.
func randomMatching(rng *rand.Rand, n int) matching.Matching {
	match := make(matching.Matching, n)
	for i := range match {
		match[i] = matching.Unmatched
	}
	perm := rng.Perm(n)
	for k := 0; k+1 < len(perm); k += 2 {
		if rng.Intn(4) != 0 {
			match[perm[k]], match[perm[k+1]] = perm[k+1], perm[k]
		}
	}
	return match
}

// TestRecommendationsParityWithExchange: uncapped, the class-bucket scan
// is the message exchange — same Action, same ExpectedGain, same partners
// in the same order — over random populations, Uniform and skewed (one
// class holds most agents), with distinct penalties and with tie-heavy
// ones. It is what lets the engine assess without expanding to agents.
func TestRecommendationsParityWithExchange(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		classes := 2 + rng.Intn(6)
		n := []int{2, 3, 17, 64, 200}[trial%5]
		matrix := make([][]float64, classes)
		for i := range matrix {
			matrix[i] = make([]float64, classes)
			for j := range matrix[i] {
				if matrix[i][j] = rng.Float64(); trial%3 == 2 {
					matrix[i][j] = float64(rng.Intn(3)) * 0.2 // tie-heavy
				}
			}
		}
		jobIdx := make([]int, n)
		for i := range jobIdx {
			if jobIdx[i] = rng.Intn(classes); trial%2 == 1 && rng.Intn(5) < 3 {
				jobIdx[i] = 0 // skewed
			}
		}
		match := randomMatching(rng, n)
		alpha := rng.Float64() * 0.3

		want := exchange(t, jobIdx, matrix, match, alpha)
		got := Recommendations(jobIdx, matrix, match, alpha, n)
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("trial %d (n=%d) agent %d: class scan %+v, exchange %+v", trial, n, i, got[i], want[i])
			}
		}
	}
}

// TestRecommendationsMergeEqualPenaltyClasses is the regression for the
// partner order on exact ties: jobs 1 and 2 are the same column of the
// matrix (every agent suffers alike next to either), so their agents form
// one tier that the exchange orders by agent ID — the scan used to list
// class 1's agents before class 2's. Row 3 is all zero, as a clamped
// oracle matrix produces: its agents gain nothing anywhere.
func TestRecommendationsMergeEqualPenaltyClasses(t *testing.T) {
	matrix := [][]float64{
		{0.9, 0.1, 0.1, 0.5},
		{0.8, 0.2, 0.2, 0.6},
		{0.8, 0.2, 0.2, 0.6},
		{0, 0, 0, 0},
	}
	// Agents of jobs 1 and 2 alternate, all stuck with a job-0 partner.
	jobIdx := []int{0, 2, 0, 1, 0, 2, 0, 1, 3, 3}
	match := matching.Matching{1, 0, 3, 2, 5, 4, 7, 6, 9, 8}
	want := exchange(t, jobIdx, matrix, match, 0)
	got := Recommendations(jobIdx, matrix, match, 0, len(jobIdx))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("class scan %+v\nexchange   %+v", got, want)
	}
	// Agent 1 (job 2, suffering 0.8 next to job 0) prefers every job-1 and
	// job-2 agent alike, and they prefer its kind over their job-0 partners.
	if !reflect.DeepEqual(got[1].BlockingPartners, []int{3, 5, 7}) {
		t.Fatalf("agent 1 lists %v, want the tier merged by agent ID: [3 5 7]", got[1].BlockingPartners)
	}
	for _, i := range []int{8, 9} {
		if got[i].Action != agent.Participate {
			t.Fatalf("all-zero-row agent %d recommends %v", i, got[i].Action)
		}
	}
}

// TestRecommendationsWithinPool: restricted to a pool, only pool members
// assess and only pool members are listed, exactly the exchange's
// partners filtered to the pool — the sharded market's shard-local
// assessment, whose members may be paired outside the pool.
func TestRecommendationsWithinPool(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	matrix := testMatrix(5)
	n := 60
	jobIdx := make([]int, n)
	for i := range jobIdx {
		jobIdx[i] = rng.Intn(5)
	}
	match := randomMatching(rng, n)
	var pool []int
	inPool := make(map[int]bool)
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 0 {
			pool = append(pool, i)
			inPool[i] = true
		}
	}
	full := exchange(t, jobIdx, matrix, match, 0.01)
	got := RecommendationsWithin(pool, matching.Penalties{Matrix: matrix, Class: jobIdx}, match, 0.01, len(pool))
	if len(got) != len(pool) {
		t.Fatalf("%d recommendations for %d members", len(got), len(pool))
	}
	for a, i := range pool {
		var partners []int
		for _, j := range full[i].BlockingPartners {
			if inPool[j] {
				partners = append(partners, j)
			}
		}
		if got[a].AgentID != i || !reflect.DeepEqual(got[a].BlockingPartners, partners) {
			t.Fatalf("member %d: %+v, want partners %v", i, got[a], partners)
		}
	}
}

// subMatrixAssign is AssignWithin as it used to work: gather the members'
// k×k agent-level sub-matrix (zero diagonal) and hand it to Assign.
func subMatrixAssign(members []int, matrix [][]float64, jobIdx []int, bw []float64, pol policy.Policy, rng *rand.Rand) (matching.Matching, error) {
	k := len(members)
	sub, subBW := make([][]float64, k), make([]float64, k)
	for a, i := range members {
		sub[a] = make([]float64, k)
		for b, j := range members {
			if i != j {
				sub[a][b] = matrix[jobIdx[i]][jobIdx[j]]
			}
		}
		subBW[a] = bw[i]
	}
	return pol.Assign(sub, policy.Context{BandwidthGBps: subBW, Rand: rng})
}

// rowRanked replaces each row of m by its classes' ranks under the
// marriage's key (penalty, then class), so that a gathered sub-matrix of
// it ranks members by (penalty, class, agent index).
func rowRanked(m [][]float64) [][]float64 {
	ranked := make([][]float64, len(m))
	for a, row := range m {
		order := make([]int, len(row))
		for b := range order {
			order[b] = b
		}
		slices.SortStableFunc(order, func(x, y int) int { return cmp.Compare(row[x], row[y]) })
		ranked[a] = make([]float64, len(row))
		for r, b := range order {
			ranked[a][b] = float64(r)
		}
	}
	return ranked
}

// TestAssignWithinMatchesSubMatrix: over a member subset, every policy
// returns through the class view the matching it returned over the
// gathered sub-matrix, for the same seed. SMR and SMP rank partners by
// (penalty, class, agent index): on the matrix whose row 2 ties classes 1
// and 4 they return the marriage over the sub-matrix gathered from the
// row-ranked matrix, and on the tie-free matrix the plain one. The view
// with the matrix's preference table returns the same as the view
// without.
func TestAssignWithinMatchesSubMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	tieFree, tied := testMatrix(6), testMatrix(6)
	tied[2][4] = tied[2][1] // a tie between classes
	n := 120
	jobIdx, bw := make([]int, n), make([]float64, n)
	for i := range jobIdx {
		jobIdx[i] = rng.Intn(6)
		bw[i] = float64(jobIdx[i]%3) * 4
	}
	for _, k := range []int{2, 3, 17, 64} {
		members := rng.Perm(n)[:k]
		sort.Ints(members)
		for _, m := range []struct {
			matrix [][]float64
			ties   bool
		}{{tieFree, false}, {tied, true}} {
			matrix := m.matrix
			for _, pol := range append(policy.All(), policy.Threshold{Tolerance: 0.3}, policy.Clustered{}) {
				gather := matrix
				if name := pol.Name(); m.ties && (name == "SMR" || name == "SMP") {
					gather = rowRanked(matrix)
				}
				want, err := subMatrixAssign(members, gather, jobIdx, bw, pol, rand.New(rand.NewSource(3)))
				if err != nil {
					t.Fatal(err)
				}
				for _, ranks := range [][]int32{nil, matching.Rank(matrix)} {
					p := matching.Penalties{Matrix: matrix, Class: jobIdx, Ranks: ranks}
					got, err := AssignWithin(members, p, func(i int) float64 { return bw[i] }, pol, rand.New(rand.NewSource(3)), nil)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("k=%d ties=%t table=%t %s: AssignWithin = %v, over the sub-matrix = %v",
							k, m.ties, ranks != nil, pol.Name(), got, want)
					}
				}
			}
		}
	}
}

// TestAssignWithinAllocatesNoSubMatrix pins the point of the class view:
// handing 300 members to a policy must not gather their 300×300 penalty
// block (720 kB of float64) again. SMR's own lists, ranks and RNG
// permutation stay far below that.
func TestAssignWithinAllocatesNoSubMatrix(t *testing.T) {
	const k = 300
	matrix := testMatrix(20)
	jobIdx, members := make([]int, 2*k), make([]int, k)
	for i := range jobIdx {
		jobIdx[i] = i % 20
	}
	for a := range members {
		members[a] = 2 * a
	}
	clear := func() {
		if _, err := AssignWithin(members, matching.Penalties{Matrix: matrix, Class: jobIdx}, func(i int) float64 { return float64(jobIdx[i]) },
			policy.StableMarriageRandom{}, rand.New(rand.NewSource(1)), nil); err != nil {
			t.Fatal(err)
		}
	}
	clear()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	clear()
	runtime.ReadMemStats(&after)
	if got, block := after.TotalAlloc-before.TotalAlloc, uint64(k*k*8); got >= block/2 {
		t.Fatalf("AssignWithin over %d members allocated %d bytes; a k×k float block is %d", k, got, block)
	}
}

func TestRecommendationsCap(t *testing.T) {
	// Every pair crosses two classes that hate each other but love
	// themselves, so each agent sees all 14 same-class agents as
	// blocking partners.
	n := 30
	jobIdx := make([]int, n)
	match := make(matching.Matching, n)
	for i := range jobIdx {
		jobIdx[i] = i % 2
		match[i] = i ^ 1
	}
	matrix := [][]float64{{0.1, 0.9}, {0.9, 0.1}}
	recs := Recommendations(jobIdx, matrix, match, 0, 5)
	for _, r := range recs {
		if len(r.BlockingPartners) > 5 {
			t.Fatalf("agent %d lists %d partners over cap", r.AgentID, len(r.BlockingPartners))
		}
	}
	if recs[0].Action != agent.BreakAway || len(recs[0].BlockingPartners) != 5 {
		t.Fatalf("capped rec = %+v", recs[0])
	}
	if g := recs[0].ExpectedGain; g != 0.9-0.1 {
		t.Fatalf("capped rec gain = %v, want 0.8", g)
	}
}

// TestLedgerCallerAssignedIDs covers ApplyIDs: the wire coordinator
// names its own agents, bad IDs are rejected with the ledger unchanged,
// and ledger-issued IDs keep counting 0, 1, 2, … when none are supplied
// (the benchmark's mirror ledger replays Apply and depends on that).
func TestLedgerCallerAssignedIDs(t *testing.T) {
	idsOf := func(d *Delta) []int {
		ids := make([]int, len(d.Agents))
		for i, a := range d.Agents {
			ids[i] = a.ID
		}
		return ids
	}
	var issued Ledger
	d, err := issued.Apply([]int{0, 1, 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := idsOf(d); !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Fatalf("ledger-issued ids = %v, want 0,1,2", got)
	}
	if d, err = issued.Apply([]int{1}, []int{1}); err != nil || !reflect.DeepEqual(idsOf(d), []int{0, 2, 3}) {
		t.Fatalf("ids after churn = %v (%v), want 0,2,3", idsOf(d), err)
	}

	var l Ledger
	if d, err = l.ApplyIDs([]int{40, 7, 19}, []int{0, 1, 0}, nil); err != nil {
		t.Fatal(err)
	}
	if got := idsOf(d); !reflect.DeepEqual(got, []int{40, 7, 19}) {
		t.Fatalf("caller-assigned ids = %v, want 40,7,19 in arrival order", got)
	}
	if err := l.Commit(matching.Matching{1, 0, matching.Unmatched}, true); err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct{ join, jobs, depart []int }{
		"id of a live agent":            {[]int{7}, []int{0}, nil},
		"id repeated among the joiners": {[]int{50, 50}, []int{0, 1}, nil},
		"id of an agent departing now":  {[]int{40}, []int{0}, []int{40}},
		"negative id":                   {[]int{-1}, []int{0}, nil},
		"fewer ids than jobs":           {[]int{50}, []int{0, 1}, nil},
		"unknown departure":             {[]int{50}, []int{0}, []int{99}},
	} {
		if _, err := l.ApplyIDs(c.join, c.jobs, c.depart); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// Every rejection left the ledger as it was: same population, same
	// matching, no churn counted, and the next delta is clean.
	if churn, baseN := l.Churn(); l.Len() != 3 || churn != 0 || baseN != 3 {
		t.Fatalf("ledger mutated by rejected deltas: len=%d churn=%d baseN=%d", l.Len(), churn, baseN)
	}
	if d, err = l.ApplyIDs([]int{3}, []int{1}, []int{7}); err != nil {
		t.Fatal(err)
	}
	if got := idsOf(d); !reflect.DeepEqual(got, []int{40, 19, 3}) {
		t.Fatalf("ids after churn = %v, want 40,19,3", got)
	}
	if want := (matching.Matching{matching.Unmatched, matching.Unmatched, matching.Unmatched}); !reflect.DeepEqual(d.Prev, want) ||
		!reflect.DeepEqual(d.Dirty, []int{0, 2}) {
		t.Fatalf("prev=%v dirty=%v: want 40 displaced, 19 still solo, 3 new", d.Prev, d.Dirty)
	}
	// IDs the ledger issues afterwards never collide with the caller's.
	if d, err = l.Apply([]int{0}, nil); err != nil || d.Agents[3].ID != 41 {
		t.Fatalf("ledger-issued id after caller ids = %+v (%v), want 41", d.Agents, err)
	}
}
