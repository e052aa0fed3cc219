package policy

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"cooper/internal/matching"
)

// testPenalties builds a synthetic penalty matrix where penalty grows with
// the product of two agents' contentiousness, mimicking the arch model.
func testPenalties(bw []float64) [][]float64 {
	n := len(bw)
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
		for j := range d[i] {
			if i != j {
				// Sensitivity ~ own demand, contention ~ co-runner demand.
				d[i][j] = 0.001 * bw[j] * (1 + 0.2*bw[i])
			}
		}
	}
	return d
}

func testContext(bw []float64, seed int64) Context {
	return Context{BandwidthGBps: bw, Rand: rand.New(rand.NewSource(seed))}
}

func randomBW(r *rand.Rand, n int) []float64 {
	bw := make([]float64, n)
	for i := range bw {
		bw[i] = r.Float64() * 25
	}
	return bw
}

func TestAllPoliciesProducePerfectMatchings(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	for _, p := range All() {
		for trial := 0; trial < 5; trial++ {
			n := 2 * (2 + r.Intn(15))
			bw := randomBW(r, n)
			d := testPenalties(bw)
			match, err := p.Assign(d, testContext(bw, int64(trial)))
			if err != nil {
				t.Fatalf("%s trial %d: %v", p.Name(), trial, err)
			}
			if err := match.Validate(); err != nil {
				t.Fatalf("%s trial %d: %v", p.Name(), trial, err)
			}
			for i, j := range match {
				if j == matching.Unmatched {
					t.Fatalf("%s trial %d: agent %d solo in even population",
						p.Name(), trial, i)
				}
			}
		}
	}
}

func TestAllPoliciesHandleOddPopulations(t *testing.T) {
	r := rand.New(rand.NewSource(52))
	for _, p := range All() {
		n := 9
		bw := randomBW(r, n)
		d := testPenalties(bw)
		match, err := p.Assign(d, testContext(bw, 1))
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		solo := 0
		for _, j := range match {
			if j == matching.Unmatched {
				solo++
			}
		}
		if solo != 1 {
			t.Errorf("%s: %d solo agents in odd population, want 1", p.Name(), solo)
		}
	}
}

func TestGreedyFillsEmptyMachinesFirst(t *testing.T) {
	bw := []float64{20, 20, 1, 1}
	d := testPenalties(bw)
	// With 4 machines for 4 agents, greedy leaves everyone solo.
	match, err := Greedy{Machines: 4}.Assign(d, testContext(bw, 1))
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range match {
		if j != matching.Unmatched {
			t.Errorf("agent %d should be solo with spare machines, got %d", i, j)
		}
	}
}

func TestGreedySequentialChoice(t *testing.T) {
	// Two machines, four agents. Agent order 0..3: agents 0 and 1 take
	// empty machines; agent 2 joins whichever occupant costs less.
	bw := []float64{20, 1, 5, 5}
	d := testPenalties(bw)
	match, err := Greedy{}.Assign(d, testContext(bw, 1))
	if err != nil {
		t.Fatal(err)
	}
	// Agent 2 (bw 5) pairs with agent 1 (bw 1): cost with 0 (bw 20) is
	// higher on both sides.
	if match[2] != 1 {
		t.Errorf("agent 2 should join agent 1, got %d", match[2])
	}
	if match[3] != 0 {
		t.Errorf("agent 3 must take the remaining slot with agent 0, got %d", match[3])
	}
}

func TestGreedyCapacityError(t *testing.T) {
	bw := []float64{1, 1, 1, 1}
	d := testPenalties(bw)
	if _, err := (Greedy{Machines: 1}).Assign(d, testContext(bw, 1)); err == nil {
		t.Error("1 machine for 4 agents should error")
	}
}

func TestComplementaryPairsExtremes(t *testing.T) {
	bw := []float64{25, 0.1, 10, 5}
	d := testPenalties(bw)
	match, err := Complementary{}.Assign(d, testContext(bw, 1))
	if err != nil {
		t.Fatal(err)
	}
	// Most intensive (0: bw 25) pairs with least intensive (1: bw 0.1).
	if match[0] != 1 {
		t.Errorf("complementary should pair agents 0 and 1, got %v", match)
	}
	if match[2] != 3 {
		t.Errorf("middle agents should pair, got %v", match)
	}
}

func TestSMPPartitionsByIntensity(t *testing.T) {
	// Four contentious (bw 20+) and four meek agents: every pair must be
	// one from each half.
	bw := []float64{22, 23, 24, 25, 1, 2, 3, 4}
	d := testPenalties(bw)
	match, err := StableMarriagePartition{}.Assign(d, testContext(bw, 1))
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range match {
		hi := bw[i] >= 20
		hj := bw[j] >= 20
		if hi == hj {
			t.Errorf("SMP paired same-half agents %d (bw %v) and %d (bw %v)",
				i, bw[i], j, bw[j])
		}
	}
}

func TestSMPCrossSetStability(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	n := 20
	bw := randomBW(r, n)
	d := testPenalties(bw)
	match, err := StableMarriagePartition{}.Assign(d, testContext(bw, 1))
	if err != nil {
		t.Fatal(err)
	}
	// No cross-set blocking pair: for agents i (memory half) and j
	// (compute half) not matched together, they must not both prefer each
	// other. Verify via the cardinal criterion restricted to cross-half
	// pairs.
	order := sortedByBandwidth(bw, indices(n), n, new(Scratch))
	half := n / 2
	inMem := make(map[int]bool)
	for _, i := range order[half:] {
		inMem[i] = true
	}
	for _, bp := range matching.Dense(d).BlockingPairs(match, 0) {
		if inMem[bp[0]] != inMem[bp[1]] {
			t.Errorf("cross-set blocking pair %v under SMP", bp)
		}
	}
}

func TestSMRDeterministicPerSeed(t *testing.T) {
	r := rand.New(rand.NewSource(54))
	n := 30
	bw := randomBW(r, n)
	d := testPenalties(bw)
	m1, err1 := StableMarriageRandom{}.Assign(d, testContext(bw, 7))
	m2, err2 := StableMarriageRandom{}.Assign(d, testContext(bw, 7))
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	for i := range m1 {
		if m1[i] != m2[i] {
			t.Fatal("same seed should reproduce the same SMR matching")
		}
	}
}

// TestScratchPermIsRandPerm: SMR's permutation in a reused buffer is
// rand.Perm's, draw for draw, so the RNG is left where Perm leaves it;
// the buffer is shared across sizes and seeds, so each seed after the
// first finds it dirtied by an n=800 permutation.
func TestScratchPermIsRandPerm(t *testing.T) {
	s := new(Scratch)
	for seed := int64(1); seed <= 5; seed++ {
		for _, n := range []int{0, 1, 2, 7, 800} {
			want, r := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			if got, perm := s.randPerm(r, n), want.Perm(n); !slices.Equal(got, perm) {
				t.Fatalf("seed %d n=%d: %v, rand.Perm %v", seed, n, got, perm)
			}
			if got, next := r.Int63(), want.Int63(); got != next {
				t.Fatalf("seed %d n=%d: next draw %d, after rand.Perm %d", seed, n, got, next)
			}
		}
	}
}

func TestSRStableForSolvableInstance(t *testing.T) {
	// Distinct penalties: the induced preferences are strict, and SR must
	// return a matching with no blocking pairs when one exists.
	d := [][]float64{
		{0, 0.1, 0.2, 0.3},
		{0.1, 0, 0.3, 0.2},
		{0.2, 0.3, 0, 0.1},
		{0.3, 0.2, 0.1, 0},
	}
	match, err := StableRoommate{}.Assign(d, Context{})
	if err != nil {
		t.Fatal(err)
	}
	if bp := matching.Dense(d).BlockingPairs(match, 0); len(bp) != 0 {
		t.Errorf("SR matching blocked: %v", bp)
	}
	// Mutually best pairs: {0,1} and {2,3}.
	if match[0] != 1 || match[2] != 3 {
		t.Errorf("match = %v, want [1 0 3 2]", match)
	}
}

func TestStablePoliciesBeatGreedyOnBlockingPairs(t *testing.T) {
	// The paper's Figure 10 headline: stable policies produce fewer
	// blocking pairs than GR.
	r := rand.New(rand.NewSource(55))
	n := 60
	bw := randomBW(r, n)
	d := testPenalties(bw)
	ctx := testContext(bw, 9)
	count := func(p Policy) int {
		m, err := p.Assign(d, ctx)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		return len(matching.Dense(d).BlockingPairs(m, 0))
	}
	gr := count(Greedy{})
	smr := count(StableMarriageRandom{})
	sr := count(StableRoommate{})
	if smr > gr {
		t.Errorf("SMR blocking pairs %d exceed GR %d", smr, gr)
	}
	if sr > gr {
		t.Errorf("SR blocking pairs %d exceed GR %d", sr, gr)
	}
}

func TestThresholdRespectsTolerance(t *testing.T) {
	bw := []float64{25, 24, 1, 2}
	d := testPenalties(bw)
	match, err := Threshold{Tolerance: 0.02}.Assign(d, Context{})
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range match {
		if j == matching.Unmatched {
			continue
		}
		if d[i][j] > 0.02 {
			t.Errorf("pair (%d,%d) violates tolerance: %v", i, j, d[i][j])
		}
	}
}

func TestThresholdZeroToleranceLeavesAllSolo(t *testing.T) {
	bw := []float64{10, 10, 10, 10}
	d := testPenalties(bw)
	match, err := Threshold{Tolerance: 0}.Assign(d, Context{})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range match {
		if j != matching.Unmatched {
			t.Error("strictly positive penalties should preclude all pairs")
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"GR", "CO", "SMP", "SMR", "SR", "TH"} {
		p, err := ByName(name)
		if err != nil {
			t.Errorf("ByName(%q): %v", name, err)
			continue
		}
		if p.Name() != name {
			t.Errorf("ByName(%q).Name() = %q", name, p.Name())
		}
	}
	if _, err := ByName("XX"); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestPolicyValidation(t *testing.T) {
	good := testPenalties([]float64{1, 2})
	ragged := [][]float64{{0, 1}, {1}}
	if _, err := (Greedy{}).Assign(ragged, Context{}); err == nil {
		t.Error("GR accepted ragged matrix")
	}
	if _, err := (Complementary{}).Assign(good, Context{}); err == nil {
		t.Error("CO accepted missing bandwidth")
	}
	if _, err := (StableMarriageRandom{}).Assign(good, Context{}); err == nil {
		t.Error("SMR accepted missing Rand")
	}
	if _, err := (StableMarriagePartition{}).Assign(good, Context{BandwidthGBps: []float64{1}}); err == nil {
		t.Error("SMP accepted short bandwidth slice")
	}
}

func TestPoliciesOnTinyPopulations(t *testing.T) {
	for _, p := range All() {
		for n := 0; n <= 2; n++ {
			bw := make([]float64, n)
			for i := range bw {
				bw[i] = float64(i + 1)
			}
			d := testPenalties(bw)
			match, err := p.Assign(d, testContext(bw, 1))
			if err != nil {
				t.Errorf("%s n=%d: %v", p.Name(), n, err)
				continue
			}
			if len(match) != n {
				t.Errorf("%s n=%d: match size %d", p.Name(), n, len(match))
			}
		}
	}
}

// indices returns 0, 1, …, n-1: a Dense view's classes.
func indices(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// bandwidthCase is one population for the bandwidth order: agent i
// demands bw[i] and is of class class[i] < classes.
type bandwidthCase struct {
	name    string
	bw      []float64
	class   []int
	classes int
}

// bandwidthCases are the order's parity cases and FuzzBandwidthOrder's
// seeds: job-shared values, random values, and NaN, ±0 and infinities,
// each through a Dense view and under random labels over three classes
// (every class holding several values); the job-shared values under
// catalog-consistent classes and with two classes to each value; NaN and
// ±0 inside one class and interleaved across two; and empty populations.
func bandwidthCases() []bandwidthCase {
	r := rand.New(rand.NewSource(39))
	shared := make([]float64, 300)
	for i := range shared {
		shared[i] = float64(r.Intn(20)) * 1.5
	}
	special := []float64{math.NaN(), 1, math.Copysign(0, -1), 0, math.Inf(-1), math.NaN(), 1, -3, math.Inf(1)}
	var cases []bandwidthCase
	for _, v := range []struct {
		name string
		bw   []float64
	}{{"empty", nil}, {"shared", shared}, {"random", randomBW(r, 50)}, {"special", special}} {
		labels := make([]int, len(v.bw))
		for i := range labels {
			labels[i] = r.Intn(3)
		}
		cases = append(cases,
			bandwidthCase{v.name + "/dense", v.bw, indices(len(v.bw)), len(v.bw)},
			bandwidthCase{v.name + "/labels", v.bw, labels, 3})
	}
	catalog, pairs := make([]int, len(shared)), make([]int, len(shared))
	for i, b := range shared {
		catalog[i] = int(b / 1.5)
		pairs[i] = 2*catalog[i] + r.Intn(2)
	}
	return append(cases,
		bandwidthCase{"shared/catalog", shared, catalog, 20},
		bandwidthCase{"shared/two-classes-a-value", shared, pairs, 40},
		bandwidthCase{"special/one-class", special, make([]int, len(special)), 1},
		bandwidthCase{"special/two-classes", []float64{math.NaN(), math.NaN(), math.NaN(), math.Copysign(0, -1), 0, math.Copysign(0, -1)},
			[]int{0, 1, 0, 1, 0, 1}, 2},
		bandwidthCase{"empty/absent-classes", nil, nil, 4})
}

// checkBandwidthOrder holds sortedByBandwidth to a stable comparator
// sort, through a fresh scratch and through one that a larger order
// dirtied first.
func checkBandwidthOrder(t *testing.T, bw []float64, class []int, classes int) {
	t.Helper()
	want := indices(len(bw))
	slices.SortStableFunc(want, func(a, b int) int { return cmp.Compare(bw[a], bw[b]) })
	if got := sortedByBandwidth(bw, class, classes, new(Scratch)); !slices.Equal(got, want) {
		t.Errorf("bandwidths %v, classes %v: order %v, want %v", bw, class, got, want)
	}
	dirty, n := new(Scratch), len(bw)+3
	sortedByBandwidth(randomBW(rand.New(rand.NewSource(int64(n))), n), indices(n), n, dirty)
	if got := sortedByBandwidth(bw, class, classes, dirty); !slices.Equal(got, want) {
		t.Errorf("bandwidths %v, classes %v: order %v through a reused scratch, want %v", bw, class, got, want)
	}
}

// TestSortedByBandwidthMatchesStableSort: the memo, the sorted misses
// and the counting sort give the order of a stable comparator sort, on
// job-shared values and on NaN, ±0 and infinities, whatever the classes.
func TestSortedByBandwidthMatchesStableSort(t *testing.T) {
	for _, c := range bandwidthCases() {
		t.Run(c.name, func(t *testing.T) { checkBandwidthOrder(t, c.bw, c.class, c.classes) })
	}
}

// FuzzBandwidthOrder is TestSortedByBandwidthMatchesStableSort on
// arbitrary values and class labels: each agent is 9 bytes, a label
// (taken modulo the classes) and a float64's bits.
func FuzzBandwidthOrder(f *testing.F) {
	for _, c := range bandwidthCases() {
		var raw []byte
		for i, b := range c.bw {
			raw = binary.LittleEndian.AppendUint64(append(raw, byte(c.class[i])), math.Float64bits(b))
		}
		f.Add(raw, uint8(c.classes-1))
	}
	f.Fuzz(func(t *testing.T, raw []byte, last uint8) {
		classes := int(last) + 1
		bw, class := make([]float64, len(raw)/9), make([]int, len(raw)/9)
		for i := range bw {
			class[i] = int(raw[9*i]) % classes
			bw[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[9*i+1:]))
		}
		checkBandwidthOrder(t, bw, class, classes)
	})
}

// sharedBandwidths draws n agents over the given number of jobs, each
// agent demanding its job's bandwidth.
func sharedBandwidths(r *rand.Rand, n, jobs int) ([]float64, []int) {
	bw, class := make([]float64, n), make([]int, n)
	for i := range bw {
		class[i] = r.Intn(jobs)
		bw[i] = float64(class[i]) * 1.5
	}
	return bw, class
}

// TestBandwidthOrderBytesPerAgent is the order's bytes pin, beside root
// TestPolicyClearGrowth: at n=800 over 20 job-shared values one order
// allocates at most the 16.64 B per agent of the bucket sort it replaced
// (a clone of the values and n+21 indices, 13,312 B in Go's size classes).
func TestBandwidthOrderBytesPerAgent(t *testing.T) {
	const n, runs = 800, 20
	bw, class := sharedBandwidths(rand.New(rand.NewSource(5)), n, 20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		sortedByBandwidth(bw, class, 20, new(Scratch))
	}
	runtime.ReadMemStats(&after)
	perAgent := float64(after.TotalAlloc-before.TotalAlloc) / (runs * n)
	t.Logf("%.2f B per agent at n=%d", perAgent, n)
	if perAgent > 13312.0/n {
		t.Errorf("the bandwidth order allocates %.2f B per agent at n=%d, above the %.2f B it replaced", perAgent, n, 13312.0/n)
	}
}

// BenchmarkBandwidthOrder times one SMP/CO order over 20 job-shared
// values (a catalog population: one memo miss per class) and over
// all-distinct values (a Dense view: every agent a miss).
func BenchmarkBandwidthOrder(b *testing.B) {
	for _, n := range []int{800, 20000} {
		r := rand.New(rand.NewSource(int64(n)))
		bw, class := sharedBandwidths(r, n, 20)
		distinct := randomBW(r, n)
		for _, leg := range []bandwidthCase{{"shared", bw, class, 20}, {"distinct", distinct, indices(n), n}} {
			b.Run(fmt.Sprintf("%s/n=%d", leg.name, n), func(b *testing.B) {
				b.ReportAllocs()
				for range b.N {
					sortedByBandwidth(leg.bw, leg.class, leg.classes, new(Scratch))
				}
			})
		}
	}
}
