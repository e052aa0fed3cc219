package cluster

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"cooper/internal/arch"
	"cooper/internal/matching"
	"cooper/internal/telemetry"
	"cooper/internal/workload"
)

// randomRound draws n agents over the catalog's rows and a random
// perfect matching of them (one agent alone when n is odd).
func randomRound(catalog []workload.Job, n int, r *rand.Rand) (rows []int, match matching.Matching) {
	rows, match = make([]int, n), make(matching.Matching, n)
	for i := range rows {
		rows[i] = r.Intn(len(catalog))
		match[i] = matching.Unmatched
	}
	order := r.Perm(n)
	for k := 0; k+1 < n; k += 2 {
		match[order[k]], match[order[k+1]] = order[k+1], order[k]
	}
	return rows, match
}

// asks is how often the cluster has asked its pair cache.
func (c *Cluster) asks() int64 {
	hits, misses := c.cache.Stats()
	return hits + misses
}

// TestDispatchGrowth is the dispatch's growth row: at n=2,000 and 8,000
// agents a warm RunMatching allocates nothing, on 10 machines and on 120
// (where runs of equal starts are reordered by ID), and asks the pair
// cache exactly 3 times per distinct (row, partner row) colocation, at
// most 3·C² for a C-row catalog: O(1) in n, held to 1.25× from n to 4n.
func TestDispatchGrowth(t *testing.T) {
	machine := arch.DefaultCMP()
	catalog := testJobs(t)
	var asks [2]int64
	for k, n := range []int{2000, 8000} {
		rows, match := randomRound(catalog, n, rand.New(rand.NewSource(int64(n))))
		distinct := make(map[[2]int]bool)
		for i, j := range match {
			if i < j {
				distinct[[2]int{rows[i], rows[j]}] = true
			}
		}
		for _, machines := range []int{10, 120} {
			c, _ := New(machines, machine)
			c.SetPairCache(arch.NewPairCache(machine, telemetry.NewRegistry()))
			before := c.asks()
			c.RunMatching(catalog, rows, match)
			asks[k] = c.asks() - before
			if want := int64(3 * len(distinct)); asks[k] != want {
				t.Errorf("n=%d, %d machines: the dispatch asked the pair cache %d times, want %d (3 per distinct colocation)",
					n, machines, asks[k], want)
			}
			if bound := int64(3 * len(catalog) * len(catalog)); asks[k] > bound {
				t.Errorf("n=%d: %d pair-cache asks, above 3·C² = %d", n, asks[k], bound)
			}
			if allocs := testing.AllocsPerRun(5, func() { c.Reset(); c.RunMatching(catalog, rows, match) }); allocs != 0 {
				t.Errorf("n=%d, %d machines: a warm dispatch allocates %v times, want 0", n, machines, allocs)
			}
		}
	}
	if float64(asks[1]) > 1.25*float64(asks[0]) {
		t.Errorf("pair-cache asks grew from %d at n=2,000 to %d at n=8,000: more than 1.25×, not O(1)", asks[0], asks[1])
	}
}

// fuzzBatch draws n assignments over the catalog: about solo eighths of
// them solo, and about zero eighths of those solos a job whose runtime
// is zero.
func fuzzBatch(jobs []workload.Job, n, solo, zero int, r *rand.Rand) []Assignment {
	batch := make([]Assignment, n)
	for k := range batch {
		a := Assignment{AgentA: 2 * k, AgentB: 2*k + 1,
			JobA: jobs[r.Intn(len(jobs))], JobB: jobs[r.Intn(len(jobs))]}
		if r.Intn(8) < solo {
			a.AgentB, a.JobB = -1, workload.Job{}
			if r.Intn(8) < zero {
				a.JobA.RuntimeS = 0
			}
		}
		batch[k] = a
	}
	return batch
}

// FuzzDispatch holds Dispatch and RunMatching to the reference bit for
// bit — every result in (start, machine ID, batch) order, both reports
// and the machines' clocks —
// over 1–130 machines (past 100, IDs stop sorting like indices), any
// solo share, zero-runtime solos (a same-named variant that occupies no
// time, so equal starts pile up on one machine) and two rounds on shared
// clocks, with and without a pair cache.
func FuzzDispatch(f *testing.F) {
	for _, seed := range []struct {
		machines   uint8
		seed       int64
		n1, n2     uint16
		solo, zero uint8
		cached     bool
	}{
		{10, 1, 400, 37, 1, 0, true},
		{1, 2, 50, 50, 4, 4, false},
		{120, 3, 300, 200, 2, 8, true},
		{101, 4, 7, 130, 8, 8, true},
		{129, 5, 1, 0, 0, 0, false},
	} {
		f.Add(seed.machines, seed.seed, seed.n1, seed.n2, seed.solo, seed.zero, seed.cached)
	}
	machine := arch.DefaultCMP()
	jobs, err := workload.Catalog(machine)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, machines uint8, seed int64, n1, n2 uint16, solo, zero uint8, cached bool) {
		m := 1 + int(machines)%130
		got, ran, want := mustNew(t, m, machine), mustNew(t, m, machine), mustNew(t, m, machine)
		if cached {
			for _, c := range []*Cluster{got, ran, want} {
				c.SetPairCache(arch.NewPairCache(machine, nil))
			}
		}
		r := rand.New(rand.NewSource(seed))
		for round, n := range []int{int(n1) % 600, int(n2) % 600} {
			batch := fuzzBatch(jobs, n, int(solo)%9, int(zero)%9, r)
			g, w := got.Dispatch(batch), referenceDispatch(want, batch)
			// The reference's sort is not stable: results that share a start
			// and a machine (zero-duration solos) come in any order. Put them
			// in batch order, the order Dispatch promises.
			slices.SortStableFunc(w, func(x, y Result) int {
				return cmp.Or(cmp.Compare(x.StartS, y.StartS), strings.Compare(x.Machine, y.Machine),
					cmp.Compare(x.Assignment.AgentA, y.Assignment.AgentA))
			})
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

func mustNew(t *testing.T, n int, machine arch.CMP) *Cluster {
	t.Helper()
	c, err := New(n, machine)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestDispatchNonFiniteDurations pins what the pass does when a runtime
// is not finite. An infinite one parks its machine at +Inf behind every
// finite clock and the results still equal the reference's. A NaN one
// leaves its machine's clock NaN, which never compares lowest: machine 0
// at NaN takes every later colocation, any other machine at NaN takes
// none, and the results come in placement order.
func TestDispatchNonFiniteDurations(t *testing.T) {
	machine := arch.DefaultCMP()
	jobs := testJobs(t)
	swapt, _ := workload.Find(jobs, "swapt")
	solo := func(agent int, runtime float64) Assignment {
		job := swapt
		job.RuntimeS = runtime
		return Assignment{AgentA: agent, AgentB: -1, JobA: job}
	}
	rt := swapt.RuntimeS

	t.Run("Inf", func(t *testing.T) {
		batch := []Assignment{solo(0, rt), solo(1, math.Inf(1)), solo(2, rt), solo(3, rt), solo(4, rt)}
		got, want := mustNew(t, 3, machine), mustNew(t, 3, machine)
		g, w := got.Dispatch(batch), referenceDispatch(want, batch)
		for k := range w {
			if g[k] != w[k] {
				t.Fatalf("result %d = %+v, reference %+v", k, g[k], w[k])
			}
		}
		if g[1].Machine != "node-01" || !math.IsInf(got.machines[1].clock, 1) {
			t.Fatalf("the infinite job ran on %s, which stands at %v", g[1].Machine, got.machines[1].clock)
		}
		for _, r := range g[2:] {
			if r.Machine == "node-01" {
				t.Fatalf("%+v was queued behind the infinite job", r)
			}
		}
		ran := mustNew(t, 3, machine)
		// Utilization is Inf/Inf: compare the reports as printed, NaN included.
		if gr, rr := fmt.Sprint(got.Summarize(g)), fmt.Sprint(ran.RunMatching(matchingOf(batch))); gr != rr || !math.IsInf(got.Summarize(g).MakespanS, 1) {
			t.Fatalf("RunMatching reports %s, Summarize(Dispatch) %s", rr, gr)
		}
	})

	for _, tc := range []struct {
		name     string
		nan      int      // the batch position of the NaN job
		machines []string // where the batch's five solos run, in batch order
		starts   []float64
	}{
		{"on machine 0", 0, []string{"node-00", "node-00", "node-00", "node-00", "node-00"},
			[]float64{0, math.NaN(), math.NaN(), math.NaN(), math.NaN()}},
		{"on machine 1", 1, []string{"node-00", "node-01", "node-00", "node-00", "node-00"},
			[]float64{0, 0, rt, 2 * rt, 3 * rt}},
	} {
		t.Run("NaN "+tc.name, func(t *testing.T) {
			batch := make([]Assignment, 5)
			for k := range batch {
				batch[k] = solo(k, rt)
			}
			batch[tc.nan] = solo(tc.nan, math.NaN())
			c := mustNew(t, 2, machine)
			g := c.Dispatch(batch)
			for k, r := range g {
				if r.Assignment.AgentA != k || r.Machine != tc.machines[k] || math.Float64bits(r.StartS) != math.Float64bits(tc.starts[k]) {
					t.Fatalf("result %d = agent %d on %s at %v, want agent %d on %s at %v",
						k, r.Assignment.AgentA, r.Machine, r.StartS, k, tc.machines[k], tc.starts[k])
				}
			}
			ran := mustNew(t, 2, machine)
			if gr, rr := fmt.Sprint(c.Summarize(g)), fmt.Sprint(ran.RunMatching(matchingOf(batch))); gr != rr {
				t.Fatalf("RunMatching reports %s, Summarize(Dispatch) %s", rr, gr)
			}
		})
	}
}

// TestDispatchPastTheRowTable holds a batch of more distinct jobs than
// the row-pair table has rows to the reference: 400 pairs whose jobs
// each run a little longer than the last make 800 rows, the table stays
// at memoRows² slots, and the rows past it are solved without it.
func TestDispatchPastTheRowTable(t *testing.T) {
	machine := arch.DefaultCMP()
	jobs := testJobs(t)
	r := rand.New(rand.NewSource(41))
	batch := make([]Assignment, 400)
	for k := range batch {
		a, b := jobs[r.Intn(len(jobs))], jobs[r.Intn(len(jobs))]
		a.RuntimeS *= 1 + float64(2*k)/1000
		b.RuntimeS *= 1 + float64(2*k+1)/1000
		batch[k] = Assignment{AgentA: 2 * k, AgentB: 2*k + 1, JobA: a, JobB: b}
	}
	got, ran, want := mustNew(t, 7, machine), mustNew(t, 7, machine), mustNew(t, 7, machine)
	g, w := got.Dispatch(batch), referenceDispatch(want, batch)
	for k := range w {
		if g[k] != w[k] {
			t.Fatalf("result %d = %+v, reference %+v", k, g[k], w[k])
		}
	}
	if rr, wr := ran.RunMatching(matchingOf(batch)), want.Summarize(w); rr != wr {
		t.Fatalf("RunMatching reports %+v, reference %+v", rr, wr)
	}
	if len(got.jobs) <= memoRows || len(got.memo) != memoRows*memoRows {
		t.Fatalf("%d rows in a table of %d slots, want more than %d rows in %d", len(got.jobs), len(got.memo), memoRows, memoRows*memoRows)
	}
}

// BenchmarkDispatch times one epoch's dispatch on a warm cluster of the
// framework's default 10 machines with a pair cache: 400 colocations (an
// epoch-allpairs epoch, n=800) and 5,000 (a stream-sharded epoch,
// n=10,000), through RunMatching (what an epoch runs) and through
// Dispatch on the same colocations as Assignments (what the benchmark
// harness's cluster.dispatch_ms_p50 replays).
func BenchmarkDispatch(b *testing.B) {
	machine := arch.DefaultCMP()
	catalog, err := workload.Catalog(machine)
	if err != nil {
		b.Fatal(err)
	}
	for _, colocations := range []int{400, 5000} {
		rows, match := randomRound(catalog, 2*colocations, rand.New(rand.NewSource(7)))
		var batch []Assignment
		for i, j := range match {
			if i < j {
				batch = append(batch, Assignment{AgentA: i, AgentB: j, JobA: catalog[rows[i]], JobB: catalog[rows[j]]})
			}
		}
		c, _ := New(10, machine)
		c.SetPairCache(arch.NewPairCache(machine, telemetry.NewRegistry()))
		b.Run(fmt.Sprintf("RunMatching/colocations=%d", colocations), func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				c.Reset()
				c.RunMatching(catalog, rows, match)
			}
		})
		b.Run(fmt.Sprintf("Dispatch/colocations=%d", colocations), func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				c.Reset()
				c.Summarize(c.Dispatch(batch))
			}
		})
	}
}
