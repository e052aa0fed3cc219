package cluster

import (
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"cooper/internal/arch"
	"cooper/internal/matching"
	"cooper/internal/telemetry"
	"cooper/internal/workload"
)

// referenceDispatch is Dispatch as it stood before the one-pass rewrite,
// kept as the oracle the rewrite is held equal to: every assignment is
// executed twice (once to estimate its duration for placement, once when
// its machine's daemon drains the queue), nothing is memoized beyond the
// pair cache, one goroutine per machine drains, and the results are
// sorted by (start, machine ID).
func referenceDispatch(c *Cluster, assignments []Assignment) []Result {
	run := func(a Assignment) Result {
		o := outcome{durationA: a.JobA.RuntimeS}
		if !a.Solo() {
			o = execute(c.machines[0].CMP, &a, c.cache)
		}
		return Result{Assignment: a, PenaltyA: o.penaltyA, PenaltyB: o.penaltyB,
			DurationA: o.durationA, DurationB: o.durationB}
	}
	loads := make([]float64, len(c.machines))
	for i, m := range c.machines {
		loads[i] = m.clock
	}
	queues := make([][]Assignment, len(c.machines))
	for _, a := range assignments {
		best := 0
		for i := 1; i < len(loads); i++ {
			if loads[i] < loads[best] {
				best = i
			}
		}
		queues[best] = append(queues[best], a)
		r := run(a)
		if r.DurationB > r.DurationA {
			loads[best] += r.DurationB
		} else {
			loads[best] += r.DurationA
		}
	}

	resultCh := make(chan []Result, len(c.machines))
	var wg sync.WaitGroup
	for i, m := range c.machines {
		wg.Add(1)
		go func(m *Machine, queue []Assignment) {
			defer wg.Done()
			var results []Result
			for _, a := range queue {
				r := run(a)
				r.Machine = m.ID
				r.StartS = m.clock
				duration := r.DurationA
				if r.DurationB > duration {
					duration = r.DurationB
				}
				r.EndS = m.clock + duration
				m.clock = r.EndS
				m.busy += duration
				results = append(results, r)
			}
			resultCh <- results
		}(m, queues[i])
	}
	wg.Wait()
	close(resultCh)

	var results []Result
	for rs := range resultCh {
		results = append(results, rs...)
	}
	sort.Slice(results, func(a, b int) bool {
		if results[a].StartS != results[b].StartS {
			return results[a].StartS < results[b].StartS
		}
		return results[a].Machine < results[b].Machine
	})
	return results
}

// mixedBatch draws n assignments over the catalog, about one in eight of
// them solo.
func mixedBatch(jobs []workload.Job, n int, r *rand.Rand) []Assignment {
	batch := make([]Assignment, n)
	for k := range batch {
		a := Assignment{AgentA: 2 * k, AgentB: 2*k + 1,
			JobA: jobs[r.Intn(len(jobs))], JobB: jobs[r.Intn(len(jobs))]}
		if r.Intn(8) == 0 {
			a.AgentB, a.JobB = -1, workload.Job{}
		}
		batch[k] = a
	}
	return batch
}

// matchingOf restates a batch as RunMatching's input, laid out as
// Dispatch lays it out: assignment k is agents 2k and 2k+1 (a solo's
// agent 2k+1 points back at 2k, so the pass skips it), and the first job
// seen under a name owns the name's catalog row, while a job that
// differs from it takes a new row at every appearance.
func matchingOf(batch []Assignment) (catalog []workload.Job, rows []int, match matching.Matching) {
	rows, match = make([]int, 2*len(batch)), make(matching.Matching, 2*len(batch))
	row := func(job workload.Job) int {
		r := slices.IndexFunc(catalog, func(c workload.Job) bool { return c.Name == job.Name })
		if r < 0 || catalog[r] != job {
			r, catalog = len(catalog), append(catalog, job)
		}
		return r
	}
	for k, a := range batch {
		rows[2*k], match[2*k], match[2*k+1] = row(a.JobA), 2*k+1, 2*k
		if a.Solo() {
			match[2*k] = matching.Unmatched
		} else {
			rows[2*k+1] = row(a.JobB)
		}
	}
	return catalog, rows, match
}

// TestDispatchMatchesReference holds the one-pass Dispatch equal to the
// reference bit for bit — every result in order, the Report (summarized
// from the results and straight from RunMatching), and the machines'
// clocks — at 5,000 mixed pair/solo assignments, with and without a
// pair cache, more machines than two-digit IDs order numerically, and
// across two dispatches that share the clocks.
func TestDispatchMatchesReference(t *testing.T) {
	cmp := arch.DefaultCMP()
	jobs := testJobs(t)
	for _, tc := range []struct {
		name     string
		machines int
		cached   bool
	}{
		{"cached", 10, true},
		{"uncached", 10, false},
		{"one machine", 1, true},
		{"120 machines", 120, true}, // "node-100" sorts before "node-11"
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, _ := New(tc.machines, cmp)
			ran, _ := New(tc.machines, cmp) // the same rounds through RunMatching
			want, _ := New(tc.machines, cmp)
			if tc.cached {
				for _, c := range []*Cluster{got, ran, want} {
					c.SetPairCache(arch.NewPairCache(cmp, nil))
				}
			}
			r := rand.New(rand.NewSource(15))
			// No Reset between the rounds: the second starts on the first's clocks.
			for round, n := range []int{5000, 1201} {
				batch := mixedBatch(jobs, n, r)
				g, w := got.Dispatch(batch), referenceDispatch(want, batch)
				if len(g) != len(w) {
					t.Fatalf("round %d: %d results, reference %d", round, len(g), len(w))
				}
				for k := range w {
					if g[k] != w[k] {
						t.Fatalf("round %d: result %d = %+v, reference %+v", round, k, g[k], w[k])
					}
				}
				wr := want.Summarize(w)
				if gr := got.Summarize(g); gr != wr {
					t.Fatalf("round %d: report %+v, reference %+v", round, gr, wr)
				}
				if rr := ran.RunMatching(matchingOf(batch)); rr != wr {
					t.Fatalf("round %d: RunMatching reports %+v, reference %+v", round, rr, wr)
				}
				for b := range want.machines {
					if *got.machines[b] != *want.machines[b] || *ran.machines[b] != *want.machines[b] {
						t.Fatalf("round %d: machine %d = %+v (RunMatching: %+v), reference %+v", round, b,
							*got.machines[b], *ran.machines[b], *want.machines[b])
					}
				}
			}
		})
	}
}

// TestDispatchKeepsSameNamedJobsApart pins the memo's key: two jobs that
// share a name but differ in model or runtime never share an outcome.
func TestDispatchKeepsSameNamedJobsApart(t *testing.T) {
	jobs := testJobs(t)
	corr, _ := workload.Find(jobs, "correlation")
	stream, _ := workload.Find(jobs, "stream")
	slow := corr
	slow.RuntimeS *= 2
	light := stream
	light.Model.API /= 4
	batch := []Assignment{
		{AgentA: 0, AgentB: 1, JobA: corr, JobB: stream},
		{AgentA: 2, AgentB: 3, JobA: slow, JobB: stream},
		{AgentA: 4, AgentB: 5, JobA: corr, JobB: light},
		{AgentA: 6, AgentB: 7, JobA: corr, JobB: stream},
	}
	got, _ := New(4, arch.DefaultCMP())
	want, _ := New(4, arch.DefaultCMP())
	g, w := got.Dispatch(batch), referenceDispatch(want, batch)
	for k := range w {
		if g[k] != w[k] {
			t.Fatalf("result %d = %+v, reference %+v", k, g[k], w[k])
		}
	}
	byAgent := make(map[int]Result)
	for _, r := range g {
		byAgent[r.Assignment.AgentA] = r
	}
	if byAgent[2].DurationA == byAgent[0].DurationA {
		t.Error("a pair with a longer-running job A reused the shorter one's outcome")
	}
	if byAgent[4].PenaltyA == byAgent[0].PenaltyA {
		t.Error("a pair with a lighter co-runner model reused the heavier one's outcome")
	}
	if byAgent[6].PenaltyA != byAgent[0].PenaltyA || byAgent[6].DurationA != byAgent[0].DurationA {
		t.Error("an identical pair did not reproduce the first one's outcome")
	}
}

// TestRunReusesScratch runs one cluster over batches that grow and then
// shrink, with a same-named re-calibrated job in every other batch: each
// RunMatching equals a fresh cluster's Summarize(Dispatch(batch)) bit
// for bit, and asks the pair cache for exactly what the fresh cluster
// does, so the memo of solved colocations lasts one dispatch.
func TestRunReusesScratch(t *testing.T) {
	cmp := arch.DefaultCMP()
	jobs := testJobs(t)
	corr, _ := workload.Find(jobs, "correlation")
	stream, _ := workload.Find(jobs, "stream")
	slow := corr
	slow.RuntimeS *= 2
	reused, _ := New(7, cmp)
	reused.SetPairCache(arch.NewPairCache(cmp, telemetry.NewRegistry()))
	r := rand.New(rand.NewSource(37))
	for round, n := range []int{3, 40, 900, 2500, 901, 40, 2, 2500} {
		batch := mixedBatch(jobs, n, r)
		if round%2 == 1 {
			batch[0] = Assignment{AgentA: 0, AgentB: 1, JobA: slow, JobB: stream}
			batch[len(batch)/2] = Assignment{AgentA: n, AgentB: n + 1, JobA: corr, JobB: stream}
		}
		fresh, _ := New(7, cmp)
		fresh.SetPairCache(arch.NewPairCache(cmp, telemetry.NewRegistry()))
		want := fresh.Summarize(fresh.Dispatch(batch))
		hits, misses := reused.cache.Stats()
		reused.Reset()
		if got := reused.RunMatching(matchingOf(batch)); got != want {
			t.Fatalf("round %d (%d assignments): RunMatching reports %+v, a fresh cluster %+v", round, n, got, want)
		}
		h, m := reused.cache.Stats()
		wh, wm := fresh.cache.Stats()
		if h+m-hits-misses != wh+wm {
			t.Fatalf("round %d: RunMatching asked the pair cache %d times, a fresh cluster %d", round, h+m-hits-misses, wh+wm)
		}
	}
}

// TestWarmRunAllocatesNothing pins the dispatch's scratch: once a
// cluster has run a batch, a RunMatching on a batch no larger allocates
// nothing.
func TestWarmRunAllocatesNothing(t *testing.T) {
	cmp := arch.DefaultCMP()
	c, _ := New(5, cmp)
	c.SetPairCache(arch.NewPairCache(cmp, telemetry.NewRegistry()))
	r := rand.New(rand.NewSource(37))
	jobs := testJobs(t)
	big, small := mixedBatch(jobs, 3000, r), mixedBatch(jobs, 1000, r)
	c.RunMatching(matchingOf(big))
	for _, batch := range [][]Assignment{big, small} {
		catalog, rows, match := matchingOf(batch)
		if allocs := testing.AllocsPerRun(10, func() { c.Reset(); c.RunMatching(catalog, rows, match) }); allocs != 0 {
			t.Fatalf("warm RunMatching of %d assignments allocates %v times, want 0", len(batch), allocs)
		}
	}
}
