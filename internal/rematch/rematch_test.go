package rematch

import (
	"cmp"
	"math"
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
	p := matching.Penalties{Matrix: testMatrix(3), Class: jobIdx}
	prev := matching.Matching{matching.Unmatched, 3, 5, 1, matching.Unmatched, 2}

	nbhd := Neighborhood([]int{0}, nil, prev, p, 2, new(Scratch))
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
	all := Neighborhood([]int{0}, nil, prev, p, 100, new(Scratch))
	if len(all) != 6 {
		t.Fatalf("topK=100 neighborhood = %v, want all 6", all)
	}

	// Restricting the pool excludes members whose partner is outside it:
	// 1 is paired with 3, and 3 is outside the pool, so 1 cannot be a
	// candidate — but 5's partner 2 is in the pool.
	pool := Neighborhood([]int{0}, &Pool{Members: []int{0, 1, 2, 5}, ShardOf: []int{0, 0, 0, 1, 1, 0}, Shard: 0}, prev, p, 100, new(Scratch))
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

// neighborhoodPopulation is one population on a decoded market: every
// agent's class and shard, a partial matching whose pairs may cross
// shards, a pool (nil: the whole population), the dirty agents and K.
type neighborhoodPopulation struct {
	jobIdx []int
	prev   matching.Matching
	pool   *Pool
	dirty  []int
	topK   int
}

// neighborhoodKs are the K a population picks from: small, the default
// (0) and one past any pool.
var neighborhoodKs = []int{1, 2, 3, 5, 0, 64}

// neighborhoodMarket decodes bytes into one market and three populations
// on it, reading zero once the bytes run out: 1–7 classes, penalties from
// {0, ¼, ½, ¾} so that ties are common, a zero entry negated (−0) when
// its byte's high bit is set, one row possibly a copy of another; then
// per population 1–60 agents over 1–4 shards, each agent's class and
// shard, a pool — one shard's members, or none on a byte divisible by 4
// — the dirty agents (a candidate on a byte divisible by 3, paired or
// not), K from neighborhoodKs, and last a partial matching: each agent
// still solo when its turn comes stays solo on a byte divisible by 4, or
// pairs with one of the solo agents after it.
func neighborhoodMarket(data []byte) (matrix [][]float64, pops []neighborhoodPopulation) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	classes := 1 + next()%7
	matrix = make([][]float64, classes)
	for a := range matrix {
		matrix[a] = make([]float64, classes)
		for b := range matrix[a] {
			v := next()
			matrix[a][b] = float64(v%4) / 4
			if v >= 128 && matrix[a][b] == 0 {
				matrix[a][b] = math.Copysign(0, -1)
			}
		}
	}
	if z := next() % (2 * classes); z < classes {
		copy(matrix[z], matrix[next()%classes])
	}
	for range 3 {
		n, shards := 1+next()%60, 1+next()%4
		pop := neighborhoodPopulation{jobIdx: make([]int, n), prev: make(matching.Matching, n)}
		shardOf := make([]int, n)
		for i := range n {
			pop.jobIdx[i], shardOf[i] = next()%classes, next()%shards
		}
		candidates := nbhdAll(n)
		if b := next(); b%4 != 0 {
			pop.pool = &Pool{ShardOf: shardOf, Shard: b / 4 % shards}
			for i, s := range shardOf {
				if s == pop.pool.Shard {
					pop.pool.Members = append(pop.pool.Members, i)
				}
			}
			candidates = pop.pool.Members
		}
		for _, i := range candidates {
			if next()%3 == 0 {
				pop.dirty = append(pop.dirty, i)
			}
		}
		pop.topK = neighborhoodKs[next()%len(neighborhoodKs)]
		for i := range pop.prev {
			pop.prev[i] = matching.Unmatched
		}
		for i := range pop.prev {
			if pop.prev[i] != matching.Unmatched {
				continue
			}
			var solo []int
			for j := i + 1; j < n; j++ {
				if pop.prev[j] == matching.Unmatched {
					solo = append(solo, j)
				}
			}
			if k := next(); k%4 != 0 && len(solo) > 0 {
				j := solo[k%len(solo)]
				pop.prev[i], pop.prev[j] = j, i
			}
		}
		pops = append(pops, pop)
	}
	return matrix, pops
}

// checkNeighborhood holds Neighborhood on every population of one decoded
// market to its reading, neighborhoodReference, through three views of
// the same penalties: the class view without a preference table, the
// class view carrying the matrix's table (built once for the three
// populations, as the market engine builds it), and the Dense expansion
// (every agent its own class). The last two share one Scratch across
// every call, so a buffer one call leaves behind must not leak into the
// next; the first has a fresh one each call.
func checkNeighborhood(t *testing.T, data []byte) {
	t.Helper()
	matrix, pops := neighborhoodMarket(data)
	ranks := matching.Rank(matrix)
	var scratch Scratch
	for _, pop := range pops {
		p := matching.Penalties{Matrix: matrix, Class: pop.jobIdx}
		tabled := p
		tabled.Ranks = ranks
		dense := make([][]float64, len(pop.jobIdx))
		for i := range dense {
			dense[i] = make([]float64, len(pop.jobIdx))
			for j := range dense[i] {
				dense[i][j] = p.At(i, j)
			}
		}
		want := neighborhoodReference(pop.dirty, pop.pool, pop.prev, p.At, pop.topK)
		for _, leg := range []struct {
			name string
			p    matching.Penalties
			s    *Scratch
		}{{"no table", p, new(Scratch)}, {"table", tabled, &scratch}, {"dense", matching.Dense(dense), &scratch}} {
			if got := Neighborhood(pop.dirty, pop.pool, pop.prev, leg.p, pop.topK, leg.s); !slices.Equal(got, want) {
				t.Fatalf("%s: n=%d K=%d pool=%+v dirty=%v prev=%v jobs=%v matrix=%v\n got %v\nwant %v",
					leg.name, len(pop.jobIdx), pop.topK, pop.pool, pop.dirty, pop.prev, pop.jobIdx, matrix, got, want)
			}
		}
	}
}

// neighborhoodSeeds is the property test's table, and FuzzNeighborhood's
// corpus: 300 random byte strings, long enough for any decoded market,
// and three made to decode into a matrix of ±0 entries under a K past
// its pool, one with equal rows, and a pool that one class is absent
// from.
func neighborhoodSeeds() [][]byte {
	rng := rand.New(rand.NewSource(37))
	seeds := make([][]byte, 300)
	for s := range seeds {
		seeds[s] = make([]byte, 1+7*7+2+3*(2+2*60+1+60+1+60))
		rng.Read(seeds[s])
	}
	return append(seeds,
		// 3 classes, every entry zero and half of them −0, no row copied;
		// 12 agents of classes 0,1,2,… over 2 shards, the pool shard 0's
		// six, three of them dirty, K = 64; then pairs, some across shards.
		[]byte{2, 128, 0, 128, 0, 128, 0, 128, 0, 128, 5,
			11, 1, 0, 0, 1, 0, 2, 0, 0, 1, 1, 1, 2, 1, 0, 0, 1, 0, 2, 0, 0, 1, 1, 1, 2, 1,
			1, 0, 1, 0, 1, 0, 1, 5, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1},
		// 3 classes, row 0 a copy of row 1; 10 agents on one shard, no
		// pool, agents 0, 3 and 6 dirty, K = 2; then pairs and solos.
		[]byte{2, 1, 2, 3, 3, 0, 1, 2, 2, 0, 0, 1,
			9, 0, 0, 0, 1, 0, 2, 0, 0, 0, 1, 0, 2, 0, 0, 0, 1, 0, 2, 0, 0, 0,
			4, 0, 1, 1, 0, 1, 1, 0, 1, 1, 1, 1, 1, 2, 3, 0, 1, 2, 3, 0, 1},
		// 4 classes, no row copied; 12 agents over 2 shards, class 3 only
		// on shard 1, the pool shard 0, agents 0 and 8 dirty, K = 3; then
		// pairs, some across shards.
		[]byte{3, 0, 1, 2, 3, 3, 2, 1, 0, 1, 1, 2, 2, 2, 3, 0, 1, 7,
			11, 1, 0, 0, 1, 0, 2, 0, 3, 1, 0, 1, 1, 1, 2, 1, 3, 1, 0, 0, 1, 0, 2, 0, 1, 1,
			1, 0, 1, 1, 0, 1, 1, 2, 1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3},
	)
}

// TestNeighborhoodMatchesReference holds Neighborhood to its reading
// over random shard partitions, tie-heavy class rows and partial
// matchings whose pairs cross shards, with and without a pool and a
// preference table, at small K, the default and past the pool.
func TestNeighborhoodMatchesReference(t *testing.T) {
	for _, seed := range neighborhoodSeeds() {
		checkNeighborhood(t, seed)
	}
}

// FuzzNeighborhood is TestNeighborhoodMatchesReference on arbitrary
// bytes.
func FuzzNeighborhood(f *testing.F) {
	for _, seed := range neighborhoodSeeds() {
		f.Add(seed)
	}
	f.Fuzz(checkNeighborhood)
}

// BenchmarkNeighborhood times one repair neighborhood at the shapes the
// workloads repair, over 20 classes on a matrix of 8 distinct values
// carrying its preference table, as the market engine hands it over: a
// stream-sharded shard (10,000 agents over 32 shards: 312 members, 6
// dirty), a wire-stream shard (1,000 over 8: 125 members, 1 dirty) and
// the unsharded market (10,000 agents, 200 dirty). Members pair up
// within their shard; the dirty agents are spread over the pool, solo.
// One Scratch serves every call, as one serves a worker's shards.
func BenchmarkNeighborhood(b *testing.B) {
	r := rand.New(rand.NewSource(42))
	matrix := make([][]float64, 20)
	for a := range matrix {
		matrix[a] = make([]float64, 20)
		for c := range matrix[a] {
			matrix[a][c] = float64(r.Intn(8)) * 0.05
		}
	}
	ranks := matching.Rank(matrix)
	for _, shape := range []struct {
		name             string
		n, shards, dirty int
	}{{"stream-sharded", 9984, 32, 6}, {"wire-stream", 1000, 8, 1}, {"unsharded", 10000, 1, 200}} {
		p := matching.Penalties{Matrix: matrix, Class: make([]int, shape.n), Ranks: ranks}
		shardOf := make([]int, shape.n)
		for i := range p.Class {
			p.Class[i], shardOf[i] = r.Intn(20), i%shape.shards
		}
		pool := &Pool{ShardOf: shardOf}
		for i := 0; i < shape.n; i += shape.shards {
			pool.Members = append(pool.Members, i)
		}
		prev := make(matching.Matching, shape.n)
		for i := range prev {
			switch j := i + shape.shards; {
			case i/shape.shards%2 == 1: // i's partner, i-shards, paired it
			case j < shape.n:
				prev[i], prev[j] = j, i
			default:
				prev[i] = matching.Unmatched
			}
		}
		var dirty []int
		for k := range shape.dirty {
			i := pool.Members[k*len(pool.Members)/shape.dirty]
			prev[i], prev[prev[i]], dirty = matching.Unmatched, matching.Unmatched, append(dirty, i)
		}
		if shape.shards == 1 {
			pool = nil
		}
		b.Run(shape.name, func(b *testing.B) {
			var s Scratch
			b.ReportAllocs()
			for range b.N {
				Neighborhood(dirty, pool, prev, p, DefaultTopK, &s)
			}
		})
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
	nbhd := Neighborhood(d.Dirty, nil, d.Prev, matching.Penalties{Matrix: matrix, Class: jobIdx}, 4, new(Scratch))
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
