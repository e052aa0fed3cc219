package cooper

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"cooper/internal/matching"
	"cooper/internal/policy"
	"cooper/internal/recommend"
	"cooper/internal/rematch"
	"cooper/internal/telemetry"
)

func TestFacadeEndToEnd(t *testing.T) {
	f, err := New(WithPolicy(SMR()), WithOracle(), WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	pop := f.SamplePopulation(60, Uniform())
	rep, err := f.RunEpoch(pop)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Match.Validate(); err != nil {
		t.Fatal(err)
	}
	if rep.MeanTruePenalty() <= 0 {
		t.Error("epoch should report penalties")
	}
}

// TestDispatchReadsCatalogRows pins the job-identity contract: an
// agent's job is the catalog row of its name, to the dispatch as to the
// matching and both penalty matrices. A population whose jobs of one
// name run twice as long as the catalog says dispatches exactly as the
// catalog job does.
func TestDispatchReadsCatalogRows(t *testing.T) {
	epoch := func(double bool) *EpochReport {
		t.Helper()
		f, err := New(WithOracle(), WithSeed(3))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		pop := f.SamplePopulation(200, Uniform())
		if double {
			pop.Jobs = slices.Clone(pop.Jobs)
			for i := range pop.Jobs {
				if pop.Jobs[i].Name == pop.Jobs[0].Name {
					pop.Jobs[i].RuntimeS *= 2
				}
			}
		}
		rep, err := f.RunEpoch(pop)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	catalog, doubled := epoch(false), epoch(true)
	if !slices.Equal(doubled.Match, catalog.Match) || !slices.Equal(doubled.TruePenalty, catalog.TruePenalty) {
		t.Fatal("a doubled runtime moved the matching or the true penalties")
	}
	if doubled.Cluster != catalog.Cluster {
		t.Fatalf("a population with doubled runtimes dispatches to %+v, the catalog's jobs to %+v",
			doubled.Cluster, catalog.Cluster)
	}
}

func TestFacadePolicies(t *testing.T) {
	names := map[string]Policy{
		"GR":  Greedy(),
		"CO":  Complementary(),
		"SMP": SMP(),
		"SMR": SMR(),
		"SR":  SR(),
	}
	for want, p := range names {
		if p.Name() != want {
			t.Errorf("policy %q has name %q", want, p.Name())
		}
		byName, err := PolicyByName(want)
		if err != nil {
			t.Errorf("PolicyByName(%q): %v", want, err)
			continue
		}
		if byName.Name() != want {
			t.Errorf("ByName(%q).Name() = %q", want, byName.Name())
		}
	}
}

func TestFacadeMixes(t *testing.T) {
	for _, m := range []Mix{Uniform(), BetaLow(), BetaHigh(), Gaussian()} {
		if m.Name() == "" {
			t.Error("mix has empty name")
		}
		r := rand.New(rand.NewSource(1))
		for i := 0; i < 100; i++ {
			if v := m.Sample(r); v < 0 || v >= 1 {
				t.Fatalf("%s sample %v out of range", m.Name(), v)
			}
		}
	}
}

func TestFacadeMatchingAndGames(t *testing.T) {
	match, err := StableMarriage([][]int{{0, 1}, {1, 0}}, [][]int{{0, 1}, {1, 0}})
	if err != nil || match[0] != 0 || match[1] != 1 {
		t.Errorf("marriage = %v, err = %v", match, err)
	}
	roommates, err := StableRoommates([][]int{{1}, {0}})
	if err != nil || roommates[0] != 1 {
		t.Errorf("roommates = %v, err = %v", roommates, err)
	}
	phi, err := Shapley(2, func(c []int) float64 { return float64(len(c)) })
	if err != nil || phi[0] != 1 || phi[1] != 1 {
		t.Errorf("shapley = %v, err = %v", phi, err)
	}
	d := [][]float64{{0, 0.1}, {0.1, 0}}
	if pairs := BlockingPairs(Matching{Unmatched, Unmatched}, d, 0); len(pairs) != 0 {
		t.Errorf("solo agents blocking: %v", pairs)
	}
}

func TestFacadeCatalogAndPrediction(t *testing.T) {
	jobs, err := Catalog(DefaultCMP())
	if err != nil || len(jobs) != 20 {
		t.Fatalf("catalog: %d jobs, err %v", len(jobs), err)
	}
	truth := [][]float64{{0, 0.1}, {0.2, 0}}
	acc, err := PreferenceAccuracy(truth, truth)
	if err != nil || acc != 1 {
		t.Errorf("accuracy = %v, err = %v", acc, err)
	}
	if DefaultPredictor().MaxIters != 3 {
		t.Error("default predictor should allow 3 iterations")
	}
}

func TestFacadeTelemetrySnapshot(t *testing.T) {
	tel := NewTelemetry()
	f, err := New(WithSeed(9), WithTelemetry(tel))
	if err != nil {
		t.Fatal(err)
	}
	pop := f.SamplePopulation(32, Uniform())
	if _, err := f.RunEpoch(pop); err != nil {
		t.Fatal(err)
	}
	snap := f.Snapshot()

	if got := snap.Counter("epoch.count"); got != 1 {
		t.Errorf("epoch.count = %d, want 1", got)
	}
	if got := snap.Counter("epoch.agents"); got != 32 {
		t.Errorf("epoch.agents = %d, want 32", got)
	}
	if snap.Counter("profile.records") == 0 {
		t.Error("profiling campaign recorded no profile.records")
	}
	if snap.Counter("predict.fill_iters") == 0 {
		t.Error("predictor recorded no fill iterations")
	}
	if snap.Counter("match.proposals") == 0 {
		t.Error("matching recorded no proposals")
	}
	if snap.Counter("arch.solver_calls") == 0 {
		t.Error("contention solver recorded no calls")
	}

	// Every pipeline phase must appear in the span tree with a positive
	// duration, and each traced phase also lands in a timing histogram.
	covered := tel.Trace.CoveredPhases()
	if len(covered) != 6 {
		t.Fatalf("covered phases = %v, want all six", covered)
	}
	for _, phase := range covered {
		h, ok := snap.Histograms["phase."+phase+"_s"]
		if !ok || h.Count == 0 {
			t.Errorf("phase %s has no timing histogram observations", phase)
		}
		if ok && h.Sum <= 0 {
			t.Errorf("phase %s recorded non-positive total duration %v", phase, h.Sum)
		}
	}

	// A disabled framework yields an empty snapshot without panicking.
	f2, err := New(WithOracle(), WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	empty := f2.Snapshot()
	if len(empty.Counters) != 0 || empty.Trace != nil {
		t.Errorf("disabled telemetry snapshot not empty: %+v", empty)
	}
}

// TestUnshardedEpochAllocatesLinearly pins the class-quotient clear: an
// unsharded epoch at n=800 used to allocate about 47 MiB — the 800×800
// agent-level penalty matrix, one sorted preference list per agent and
// an inbox per agent — and now stays under 8 MiB, so none of them can
// come back unnoticed.
func TestUnshardedEpochAllocatesLinearly(t *testing.T) {
	f, err := New(WithPolicy(SMR()), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pop := f.SamplePopulation(800, Uniform())
	if _, err := f.RunEpoch(pop); err != nil { // warm the pair cache
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := f.RunEpoch(pop); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 8<<20 {
		t.Fatalf("unsharded epoch over 800 agents allocated %.1f MiB, want < 8", float64(got)/(1<<20))
	}
}

// TestPredictCompleteAllocation pins the kernel's memory on the
// predict-complete workload's input (600 jobs, 25% of pairs, one fill
// iteration). One exact Complete stays under 7 MiB — about 6: two n×n
// arrays (the values, filled in place, and the similarities), the
// bitsets and each worker's scratch — so a third n×n array cannot come
// in unnoticed. The approximate path runs the same kernel and adds its
// candidate bitset, projection hyperplanes and signatures: about 8 MiB,
// under 9. Workers is fixed because each worker adds its own ≈ 0.2 MiB
// of scratch.
func TestPredictCompleteAllocation(t *testing.T) {
	sparse := predictCompleteInput(t, 600, 7)
	approx := recommend.Default()
	approx.Approx = recommend.DefaultApprox()
	for _, leg := range []struct {
		name  string
		p     recommend.Predictor
		bound uint64
	}{{"exact", recommend.Default(), 7 << 20}, {"approximate", approx, 9 << 20}} {
		p := leg.p
		p.Workers = 2
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, iters, err := p.Complete(sparse); err != nil || iters != 1 {
			t.Fatalf("%s Complete: %d iterations, %v; want one iteration", leg.name, iters, err)
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got >= leg.bound {
			t.Errorf("%s Complete of a 600-job matrix allocated %.1f MiB, want < %d",
				leg.name, float64(got)/(1<<20), leg.bound>>20)
		}
	}
}

// TestStreamRepairEpochAllocation pins the per-class epoch tail: a
// streaming repair epoch at the stream-sharded workload's size — 10,000
// agents over 32 shards, 1% churn — stays under 3.8 MiB (about 3.2: the
// report, the ledger's delta and the round's roster) and 605 heap
// objects (about 550). Facts that are per job class are computed per
// class: the pair penalties a colocation executes, the shard an agent
// hashes to, a repair's candidates, and the assessment, which counts
// blocking pairs from class counts instead of listing partners. The
// churn ledger holds positions, the engine carries shards by position,
// the shard repairs share a scratch per worker and the dispatch reuses
// its buffers, so none of them rebuilds anything of population size per
// shard or per agent. Both figures grow with the worker count, so the
// epoch runs at GOMAXPROCS=2 whatever the host.
func TestStreamRepairEpochAllocation(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	m := newStreamMarket(t, 10000, 32, 1e9) // never a full clear after epoch 0
	defer m.f.Close()
	m.step(t, m.churn()) // warm the pair cache and the reused buffers
	c := m.churn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep := m.step(t, c)
	runtime.ReadMemStats(&after)
	if rep.Rematch.Mode != "repair" {
		t.Fatalf("epoch ran in %s mode", rep.Rematch.Mode)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 38<<20/10 {
		t.Fatalf("repair epoch over 10000 agents allocated %.2f MiB, want < 3.8", float64(got)/(1<<20))
	}
	if got := after.Mallocs - before.Mallocs; got > 605 {
		t.Fatalf("repair epoch over 10000 agents allocated %d objects, want at most 605", got)
	}
}

// TestAllPairsEpochAllocation pins the allocation of unsharded SMR and
// SMP epochs at the epoch-allpairs workload's size, n = 800, under 200
// KiB. SMP leaves every same-half pair free to block, tens of thousands
// of pairs, yet its epoch allocates about 120 KiB, because the blocking
// pairs are counted from class counts and never listed; SMR's allocates
// about 125 KiB. Both marriages run over class counts and build no
// preference list: with lists, SMP took 250 KiB and SMR 335.
func TestAllPairsEpochAllocation(t *testing.T) {
	for _, p := range []Policy{SMR(), SMP()} {
		f, err := New(WithOracle(), WithSeed(31), WithPolicy(p))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		pop := f.SamplePopulation(800, Uniform())
		if _, err := f.RunEpoch(pop); err != nil { // warm the pair cache
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rep, err := f.RunEpoch(pop)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if p.Name() == "SMP" && rep.BlockingPairCount < 10000 {
			t.Fatalf("SMP epoch over 800 agents left %d blocking pairs; the pin wants a market with many", rep.BlockingPairCount)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 200<<10 {
			t.Fatalf("%s epoch over 800 agents allocated %d KiB, want < 200", p.Name(), got>>10)
		}
	}
}

// TestMarriageClassesGrowth is the marriage's complexity pin. Growth
// class: O(1) in agents for both class steps and allocations — deferred
// acceptance runs over at most 20 classes a side, moving a repeating
// rejection cycle round all its laps at once, and the dealing allocates
// a fixed number of O(n) slices. Each row clears SMR and SMP at n and 4n
// over eight populations, on the predicted matrix (whose rows tie
// classes) and on a 20-class matrix of 6 distinct values, each through a
// view without the matrix's preference table and one with it (the
// market engine's), and holds the summed steps and the allocs/op at 4n
// to 1.25 times those at n. One population's steps vary by a third from
// draw to draw; the sum does not. A count-level marriage that moves a
// cycle one lap at a time makes steps grow with n, about fourfold per
// row.
func TestMarriageClassesGrowth(t *testing.T) {
	f, err := New(WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	const n = 2000
	for _, m := range growthMatrices(f) {
		for _, ranks := range [][]int32{nil, matching.Rank(m.matrix)} {
			for _, p := range []policy.Policy{policy.StableMarriageRandom{}, policy.StableMarriagePartition{}} {
				var steps, allocs [2]float64
				for k, size := range []int{n, 4 * n} {
					for seed := int64(1); seed <= 8; seed++ {
						draw := rand.New(rand.NewSource(seed))
						pen := matching.Penalties{Matrix: m.matrix, Class: make([]int, size), Ranks: ranks}
						bw := make([]float64, size)
						for i := range pen.Class {
							pen.Class[i] = draw.Intn(len(m.matrix))
							bw[i] = f.Catalog()[pen.Class[i]].BandwidthGBps
						}
						ctx := policy.Context{BandwidthGBps: bw, Rand: rand.New(rand.NewSource(seed)), Metrics: telemetry.NewRegistry()}
						if _, err := p.AssignClasses(pen, ctx); err != nil {
							t.Fatal(err)
						}
						steps[k] += float64(ctx.Metrics.Counter("match.proposals").Value())
						if seed == 1 {
							ctx.Metrics = nil
							allocs[k] = testing.AllocsPerRun(3, func() {
								if _, err := p.AssignClasses(pen, ctx); err != nil {
									t.Fatal(err)
								}
							})
						}
					}
				}
				t.Logf("%s table=%t %s: %v class steps over 8 populations and %v allocs/op at n=%d and %d",
					m.name, ranks != nil, p.Name(), steps, allocs, n, 4*n)
				if steps[1] > 1.25*steps[0] || allocs[1] > 1.25*allocs[0] {
					t.Errorf("%s table=%t %s: steps %v, allocs/op %v at n=%d and %d; want each within 1.25x",
						m.name, ranks != nil, p.Name(), steps, allocs, n, 4*n)
				}
			}
		}
	}
}

// growthMatrices are the growth pins' two job-level matrices: the
// predicted one, whose rows tie classes, and a catalog-sized one of 6
// distinct values.
func growthMatrices(f *Framework) []struct {
	name   string
	matrix [][]float64
} {
	r := rand.New(rand.NewSource(39))
	ties := make([][]float64, len(f.Catalog()))
	for a := range ties {
		ties[a] = make([]float64, len(ties))
		for b := range ties[a] {
			ties[a][b] = float64(r.Intn(6)) * 0.05
		}
	}
	return []struct {
		name   string
		matrix [][]float64
	}{{"predicted", f.PredictedPenalties()}, {"6 values", ties}}
}

// TestAssessGrowth is the assessment's complexity pin. Growth class:
// O(n) — Assess counts agents into (class, partner class) cells and
// walks ranked rows per occupied cell, so its allocations are a fixed
// number of slices, one of them the n recommendations. At n=2,000 and
// 8,000 agents of random classes, randomly paired with some left alone,
// on the predicted matrix and the 6-value one, through the view with the
// matrix's preference table, allocs/op at 4n must stay within 1.25 times
// those at n and bytes/op within 5 times.
func TestAssessGrowth(t *testing.T) {
	f, err := New(WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	const n = 2000
	for _, m := range growthMatrices(f) {
		ranks := matching.Rank(m.matrix)
		var allocs, bytes [2]float64
		for k, size := range []int{n, 4 * n} {
			draw := rand.New(rand.NewSource(int64(size)))
			pen := matching.Penalties{Matrix: m.matrix, Class: make([]int, size), Ranks: ranks}
			for i := range pen.Class {
				pen.Class[i] = draw.Intn(len(m.matrix))
			}
			match := make(matching.Matching, size)
			perm := draw.Perm(size)
			for x := 0; x+1 < size; x += 2 {
				match[perm[x]], match[perm[x+1]] = perm[x+1], perm[x]
				if x%10 == 0 {
					match[perm[x]], match[perm[x+1]] = matching.Unmatched, matching.Unmatched
				}
			}
			assess := func() { rematch.Assess(pen, match, 0) }
			allocs[k] = testing.AllocsPerRun(5, assess)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range 5 {
				assess()
			}
			runtime.ReadMemStats(&after)
			bytes[k] = float64(after.TotalAlloc-before.TotalAlloc) / 5
		}
		t.Logf("%s: %v allocs/op and %v B/op at n=%d and %d", m.name, allocs, bytes, n, 4*n)
		if allocs[1] > 1.25*allocs[0] || bytes[1] > 5*bytes[0] {
			t.Errorf("%s: allocs/op %v, B/op %v at n=%d and %d; want allocs within 1.25x and bytes within 5x",
				m.name, allocs, bytes, n, 4*n)
		}
	}
}
