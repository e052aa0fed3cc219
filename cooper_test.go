package cooper

import (
	"maps"
	"math"
	"math/rand"
	"reflect"
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

// TestFrameworksKeepTheirOwnCounters: two Frameworks with telemetry of
// their own share no counter. Building and running B, then a Framework
// with no telemetry, leaves every counter of A as it was, so no model
// layer keeps a process-wide sink that a later Framework redirects. A
// and B each count the oracle's 230 solves (the catalog's 20 solos and
// 210 pairs) in arch.solver_calls, a profiled and an oracle Framework
// alike: the catalog's calibration and the campaign's simulations solve
// off the books.
func TestFrameworksKeepTheirOwnCounters(t *testing.T) {
	run := func(opts ...Option) *Framework {
		t.Helper()
		f, err := New(append([]Option{WithSeed(3)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		if _, err := f.RunEpoch(f.SamplePopulation(32, Uniform())); err != nil {
			t.Fatal(err)
		}
		return f
	}
	a := run(WithTelemetry(NewTelemetry()))
	before := a.Snapshot().Counters
	b := run(WithTelemetry(NewTelemetry()), WithOracle())
	run()
	after := a.Snapshot().Counters
	if !maps.Equal(before, after) {
		for name, v := range after {
			if before[name] != v {
				t.Errorf("A's %s went %d → %d while B and a Framework without telemetry ran", name, before[name], v)
			}
		}
	}
	for name, f := range map[string]*Framework{"A": a, "B": b} {
		if got := f.Snapshot().Counter("arch.solver_calls"); got != 230 {
			t.Errorf("%s counted %d solver calls, want the oracle's 230", name, got)
		}
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
// agents over 32 shards, 1% churn — stays under 1.25 MiB (about 0.97 MiB
// measured: the report's own slices, the round's IDs, rows and shards,
// and the repaired matching) and 520 heap objects (about 475, with the
// race detector or without). Facts that are per job class are computed
// per class: the pair penalties a colocation executes, the shard an
// agent hashes to, a repair's candidates, and the assessment, which
// counts blocking pairs from class counts instead of listing partners
// and keeps its verdicts a class table instead of a slice per agent.
// The churn ledger holds positions and hands out views of its buffers,
// the engine reads the round's jobs off it into a reused buffer and
// carries shards by position, the shard repairs keep their scratch and
// RNGs across rounds, growing the scratch only when it is too small, and
// the dispatch reuses its buffers, so none of them rebuilds anything of
// population size per shard or per agent, and no per-agent allocation
// holds a pointer. Both figures grow with the worker count, so the epoch
// runs at GOMAXPROCS=2 whatever the host.
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
	t.Logf("repair epoch over 10000 agents: %.2f MiB, %d objects",
		float64(after.TotalAlloc-before.TotalAlloc)/(1<<20), after.Mallocs-before.Mallocs)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 5<<20/4 {
		t.Fatalf("repair epoch over 10000 agents allocated %.2f MiB, want < 1.25", float64(got)/(1<<20))
	}
	if got := after.Mallocs - before.Mallocs; got > 520 {
		t.Fatalf("repair epoch over 10000 agents allocated %d objects, want at most 520", got)
	}
}

// TestStreamEpochBytesPerAgent is the streaming epoch's bytes-per-agent
// row. Growth class: O(n) bytes, a bounded number of them per agent —
// the report's own per-agent slices and the round's IDs, rows, shards
// and repaired matching — and nothing per agent that holds a pointer: a
// repair epoch at 1% churn over 32 shards allocates at most 120 B per
// agent at n = 10,000 and at n = 40,000 (about 98 and 81), and the
// larger epoch at most 4 × 1.25 times the bytes of the smaller. Each size
// is measured as the mean of three epochs after a warm one, at
// GOMAXPROCS=2.
func TestStreamEpochBytesPerAgent(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	perEpoch := func(n int) float64 {
		m := newStreamMarket(t, n, 32, 1e9) // never a full clear after epoch 0
		defer m.f.Close()
		m.step(t, m.churn())
		const epochs = 3
		var bytes uint64
		for range epochs {
			c := m.churn()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			rep := m.step(t, c)
			runtime.ReadMemStats(&after)
			if rep.Rematch.Mode != "repair" {
				t.Fatalf("epoch at n=%d ran in %s mode", n, rep.Rematch.Mode)
			}
			bytes += after.TotalAlloc - before.TotalAlloc
		}
		return float64(bytes) / epochs
	}
	small, large := perEpoch(10000), perEpoch(40000)
	t.Logf("%.0f B per agent at n=10000, %.0f at n=40000", small/10000, large/40000)
	if small/10000 > 120 || large/40000 > 120 {
		t.Errorf("repair epoch allocated %.0f B per agent at n=10000 and %.0f at n=40000, want at most 120", small/10000, large/40000)
	}
	if large > 4*1.25*small {
		t.Errorf("repair epoch allocated %.2f MiB at n=40000, %.1f× the %.2f MiB at n=10000: want at most 5×", large/(1<<20), large/small, small/(1<<20))
	}
}

// TestAllPairsEpochAllocation pins the allocation of unsharded SMR and
// SMP epochs at the epoch-allpairs workload's size, n = 800, under 40
// KiB. SMP leaves every same-half pair free to block, tens of thousands
// of pairs, yet its epoch allocates about 33 KiB, because the blocking
// pairs are counted from class counts and never listed; SMR's allocates
// about 32 KiB. That is what the report keeps: its matching, its rows,
// its true and predicted penalties and the assessment's verdict table.
// The marriage's, the orders' and the assessment's working memory is the
// market engine's, reused epoch to epoch (without it, SMP took 74 KiB
// and SMR 85). Both marriages run over class counts and build no
// preference list (with lists, SMP took 250 KiB and SMR 335), and the
// assessment's verdicts stay a class table (as a slice of 48-B
// recommendations, SMP took 115 KiB and SMR 125).
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
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s epoch over 800 agents allocated %d KiB", p.Name(), got>>10)
		if got >= 40<<10 {
			t.Fatalf("%s epoch over 800 agents allocated %d KiB, want < 40", p.Name(), got>>10)
		}
	}
}

// TestReportsOutliveLaterEpochs: a report's matching, penalties and
// assessment are its own, not views of the working memory the market
// engine reuses from epoch to epoch. For unsharded SMR, SMP and CO, a
// RunEpoch report, and a streaming market's cold-start and repair
// reports, read after three more epochs through the same Framework
// exactly what they read when they were returned. The first of the three
// clears a smaller population, in the arrays the kept report's clear
// ran in; the second a larger one, which grows them; the third a smaller
// one again.
func TestReportsOutliveLaterEpochs(t *testing.T) {
	type kept struct {
		name             string
		rep              *EpochReport
		match            Matching
		truePen, predPen []float64
		recs             []Recommendation
		breaks, blocking int
	}
	keep := func(name string, rep *EpochReport) kept {
		return kept{name, rep, slices.Clone(rep.Match), slices.Clone(rep.TruePenalty), slices.Clone(rep.PredictedPenalty),
			rep.Recommendations(), rep.BreakAwayCount(), rep.BlockingPairCount}
	}
	sameBits := func(a, b []float64) bool {
		return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
	}
	check := func(t *testing.T, k kept) {
		t.Helper()
		r := k.rep
		switch {
		case !slices.Equal(r.Match, k.match):
			t.Errorf("%s report's matching changed under later epochs", k.name)
		case !sameBits(r.TruePenalty, k.truePen) || !sameBits(r.PredictedPenalty, k.predPen):
			t.Errorf("%s report's penalties changed under later epochs", k.name)
		case !reflect.DeepEqual(r.Recommendations(), k.recs):
			t.Errorf("%s report's recommendations changed under later epochs", k.name)
		case r.BreakAwayCount() != k.breaks || r.BlockingPairCount != k.blocking:
			t.Errorf("%s report's counts changed under later epochs: %d break-aways and %d blocking pairs, were %d and %d",
				k.name, r.BreakAwayCount(), r.BlockingPairCount, k.breaks, k.blocking)
		}
	}
	for _, p := range []Policy{SMR(), SMP(), Complementary()} {
		t.Run(p.Name(), func(t *testing.T) {
			f, err := New(WithOracle(), WithSeed(17), WithPolicy(p))
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			run := func(n int) *EpochReport {
				rep, err := f.RunEpoch(f.SamplePopulation(n, Uniform()))
				if err != nil {
					t.Fatal(err)
				}
				return rep
			}
			k := keep("RunEpoch", run(300))
			run(150)
			run(1200)
			run(90)
			check(t, k)

			s, err := New(WithOracle(), WithSeed(17), WithPolicy(p), WithRematch())
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			var ids []int
			stream := func(join int, depart []int) *EpochReport {
				rep, err := s.StreamEpoch(Churn{Join: s.SamplePopulation(join, Uniform()).Jobs, Depart: depart})
				if err != nil {
					t.Fatal(err)
				}
				ids = rep.AgentIDs
				return rep
			}
			cold := keep("cold-start StreamEpoch", stream(300, nil))
			repaired := stream(3, slices.Clone(ids[:3]))
			if repaired.Rematch.Mode != "repair" {
				t.Fatalf("the second streaming epoch ran in %s mode", repaired.Rematch.Mode)
			}
			repair := keep("repair StreamEpoch", repaired)
			for _, c := range []struct{ join, depart int }{{0, 150}, {1000, 0}, {0, 1060}} {
				if rep := stream(c.join, slices.Clone(ids[:c.depart])); rep.Rematch.Mode != "full" {
					t.Fatalf("a streaming epoch with %d joins and %d departures ran in %s mode", c.join, c.depart, rep.Rematch.Mode)
				}
			}
			check(t, cold)
			check(t, repair)
		})
	}
}

// TestUnshardedEpochBytesPerAgent is the unsharded epoch's bytes-per-agent
// row. Growth class: O(n) bytes, only the report's four kept 8-B slices
// per agent (its matching, rows, true and predicted penalties) plus its
// O(C²) verdict table, and a number of heap objects that does not grow
// with n. A warm SMR or SMP epoch allocates at most 36 B per agent at n =
// 25,000 and at n = 100,000, and as many objects at both sizes; the
// engine reuses everything else (the bandwidths, the random or bandwidth
// order, the marriage's and the assessment's tables) from its previous
// epoch. Without that reuse an epoch took about 71 B per agent.
func TestUnshardedEpochBytesPerAgent(t *testing.T) {
	for _, p := range []Policy{SMR(), SMP()} {
		f, err := New(WithOracle(), WithSeed(31), WithPolicy(p))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		var objects [2]uint64
		for k, n := range []int{25000, 100000} {
			pop := f.SamplePopulation(n, Uniform())
			if _, err := f.RunEpoch(pop); err != nil { // grow the engine's scratch to n
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := f.RunEpoch(pop)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			perAgent := float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
			objects[k] = after.Mallocs - before.Mallocs
			t.Logf("%s epoch at n=%d: %.1f B per agent, %d objects", p.Name(), n, perAgent, objects[k])
			if perAgent > 36 {
				t.Errorf("%s epoch at n=%d allocated %.1f B per agent, want at most 36", p.Name(), n, perAgent)
			}
		}
		if objects[0] != objects[1] {
			t.Errorf("%s epoch allocated %d objects at n=25000 and %d at n=100000, want as many", p.Name(), objects[0], objects[1])
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

// TestPolicyClearGrowth is every policy's bytes pin on the predicted
// matrix with its preference table, as the market engine hands it over.
// Each row declares its growth class in agents, O(n^k), and holds
// AssignClasses' bytes/op at 4n within 4^k × 1.25 times those at n. The
// O(n) policies keep a fixed number of per-agent slices and nothing
// agents×agents. SR is declared O(n²): Irving's roomTable keeps n×n
// active flags until SR works over class counts (ROADMAP item 21), so
// its row runs at sizes that keep it fast.
func TestPolicyClearGrowth(t *testing.T) {
	f, err := New(WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	matrix := f.PredictedPenalties()
	ranks := matching.Rank(matrix)
	for _, row := range []struct {
		p policy.Policy
		k int // growth class O(n^k)
		n int
	}{
		{policy.Greedy{}, 1, 2000},
		{policy.Complementary{}, 1, 2000},
		{policy.StableMarriagePartition{}, 1, 2000},
		{policy.StableMarriageRandom{}, 1, 2000},
		{policy.Threshold{Tolerance: 0.1}, 1, 2000},
		{policy.StableRoommate{}, 2, 250},
	} {
		var bytes [2]float64
		for x, size := range []int{row.n, 4 * row.n} {
			draw := rand.New(rand.NewSource(int64(size)))
			pen := matching.Penalties{Matrix: matrix, Class: make([]int, size), Ranks: ranks}
			bw := make([]float64, size)
			for i := range pen.Class {
				pen.Class[i] = draw.Intn(len(matrix))
				bw[i] = f.Catalog()[pen.Class[i]].BandwidthGBps
			}
			ctx := policy.Context{BandwidthGBps: bw, Rand: rand.New(rand.NewSource(1))}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := row.p.AssignClasses(pen, ctx)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			bytes[x] = float64(after.TotalAlloc - before.TotalAlloc)
		}
		limit := 1.25 * math.Pow(4, float64(row.k))
		t.Logf("%s, O(n^%d): %.0f and %.0f B/op at n=%d and %d, ×%.2f (limit ×%g)",
			row.p.Name(), row.k, bytes[0], bytes[1], row.n, 4*row.n, bytes[1]/bytes[0], limit)
		if bytes[1] > limit*bytes[0] {
			t.Errorf("%s: B/op %v at n=%d and %d, ×%.2f; its O(n^%d) class allows ×%g",
				row.p.Name(), bytes, row.n, 4*row.n, bytes[1]/bytes[0], row.k, limit)
		}
	}
}

// TestAssessGrowth is the assessment's complexity pin. Growth class:
// O(1) in agents for allocations and bytes — Assess counts agents into
// (class, partner class) cells and walks ranked rows per occupied cell,
// so it allocates three tables of at most C×(C+1) cells and nothing per
// agent: the verdicts stay a table, read per agent on demand. At n=2,000
// and 8,000 agents of random classes, randomly paired with some left
// alone, on the predicted matrix and the 6-value one, through the view
// with the matrix's preference table, allocs/op and bytes/op at 4n must
// stay within 1.25 times those at n. A per-agent slice of
// recommendations makes bytes grow about 3.6-fold.
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
			assess := func() { rematch.Assess(pen, match, 0, nil) }
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
		if allocs[1] > 1.25*allocs[0] || bytes[1] > 1.25*bytes[0] {
			t.Errorf("%s: allocs/op %v, B/op %v at n=%d and %d; want each within 1.25x",
				m.name, allocs, bytes, n, 4*n)
		}
	}
}
