package cluster

import (
	"math"
	"testing"

	"cooper/internal/arch"
	"cooper/internal/workload"
)

func testJobs(t *testing.T) []workload.Job {
	t.Helper()
	jobs, err := workload.Catalog(arch.DefaultCMP())
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, arch.DefaultCMP()); err == nil {
		t.Error("zero machines accepted")
	}
	if _, err := New(5, arch.DefaultCMP()); err != nil {
		t.Error(err)
	}
}

func TestDispatchSoloJob(t *testing.T) {
	jobs := testJobs(t)
	c, _ := New(2, arch.DefaultCMP())
	swapt, _ := workload.Find(jobs, "swapt")
	results := c.Dispatch([]Assignment{{AgentA: 0, AgentB: -1, JobA: swapt}})
	if len(results) != 1 {
		t.Fatalf("results = %d", len(results))
	}
	r := results[0]
	if r.PenaltyA != 0 || r.PenaltyB != 0 {
		t.Errorf("solo run should have no penalty: %+v", r)
	}
	if r.DurationA != swapt.RuntimeS {
		t.Errorf("solo duration = %v, want %v", r.DurationA, swapt.RuntimeS)
	}
	if r.EndS != r.StartS+swapt.RuntimeS {
		t.Errorf("end = %v", r.EndS)
	}
}

func TestDispatchPairStretchesRuntime(t *testing.T) {
	jobs := testJobs(t)
	c, _ := New(1, arch.DefaultCMP())
	corr, _ := workload.Find(jobs, "correlation")
	stream, _ := workload.Find(jobs, "stream")
	results := c.Dispatch([]Assignment{{AgentA: 0, AgentB: 1, JobA: corr, JobB: stream}})
	r := results[0]
	if r.PenaltyA <= 0 || r.PenaltyB <= 0 {
		t.Errorf("contentious pair should suffer: %+v", r)
	}
	if r.DurationA <= corr.RuntimeS {
		t.Errorf("duration %v should exceed standalone %v", r.DurationA, corr.RuntimeS)
	}
	want := corr.RuntimeS / (1 - r.PenaltyA)
	if math.Abs(r.DurationA-want) > 1e-9 {
		t.Errorf("stretch mismatch: %v vs %v", r.DurationA, want)
	}
}

func TestDispatchBalancesLoad(t *testing.T) {
	jobs := testJobs(t)
	c, _ := New(2, arch.DefaultCMP())
	swapt, _ := workload.Find(jobs, "swapt")
	var batch []Assignment
	for i := 0; i < 4; i++ {
		batch = append(batch, Assignment{AgentA: i, AgentB: -1, JobA: swapt})
	}
	results := c.Dispatch(batch)
	perMachine := make(map[string]int)
	for _, r := range results {
		perMachine[r.Machine]++
	}
	if len(perMachine) != 2 || perMachine["node-00"] != 2 || perMachine["node-01"] != 2 {
		t.Errorf("load not balanced: %v", perMachine)
	}
}

func TestDispatchQueuesWhenOverloaded(t *testing.T) {
	jobs := testJobs(t)
	c, _ := New(1, arch.DefaultCMP())
	swapt, _ := workload.Find(jobs, "swapt")
	results := c.Dispatch([]Assignment{
		{AgentA: 0, AgentB: -1, JobA: swapt},
		{AgentA: 1, AgentB: -1, JobA: swapt},
	})
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	if results[1].StartS != results[0].EndS {
		t.Errorf("second job should queue: start %v vs first end %v",
			results[1].StartS, results[0].EndS)
	}
}

func TestSummarize(t *testing.T) {
	jobs := testJobs(t)
	c, _ := New(2, arch.DefaultCMP())
	corr, _ := workload.Find(jobs, "correlation")
	dedup, _ := workload.Find(jobs, "dedup")
	swapt, _ := workload.Find(jobs, "swapt")
	results := c.Dispatch([]Assignment{
		{AgentA: 0, AgentB: 1, JobA: corr, JobB: dedup},
		{AgentA: 2, AgentB: -1, JobA: swapt},
	})
	rep := c.Summarize(results)
	if rep.Jobs != 3 {
		t.Errorf("jobs = %d, want 3", rep.Jobs)
	}
	if rep.MakespanS <= 0 || rep.BusyS <= 0 {
		t.Errorf("report = %+v", rep)
	}
	if rep.UtilizationPct <= 0 || rep.UtilizationPct > 100 {
		t.Errorf("utilization = %v", rep.UtilizationPct)
	}
	if rep.MeanPenalty <= 0 {
		t.Errorf("mean penalty = %v", rep.MeanPenalty)
	}
}

func TestReset(t *testing.T) {
	jobs := testJobs(t)
	c, _ := New(1, arch.DefaultCMP())
	swapt, _ := workload.Find(jobs, "swapt")
	c.Dispatch([]Assignment{{AgentA: 0, AgentB: -1, JobA: swapt}})
	c.Reset()
	results := c.Dispatch([]Assignment{{AgentA: 1, AgentB: -1, JobA: swapt}})
	if results[0].StartS != 0 {
		t.Errorf("after reset start = %v, want 0", results[0].StartS)
	}
}

func TestDispatchDeterministic(t *testing.T) {
	jobs := testJobs(t)
	mk := func() []Result {
		c, _ := New(3, arch.DefaultCMP())
		var batch []Assignment
		for i := 0; i < 10; i++ {
			batch = append(batch, Assignment{
				AgentA: 2 * i, AgentB: 2*i + 1,
				JobA: jobs[i%len(jobs)], JobB: jobs[(i*7)%len(jobs)],
			})
		}
		return c.Dispatch(batch)
	}
	a, b := mk(), mk()
	if len(a) != len(b) {
		t.Fatal("nondeterministic result count")
	}
	for i := range a {
		if a[i].Machine != b[i].Machine || a[i].StartS != b[i].StartS {
			t.Fatalf("nondeterministic placement at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}
