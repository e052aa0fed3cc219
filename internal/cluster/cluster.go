// Package cluster simulates the shared datacenter Cooper manages: a set
// of machines (chip multiprocessors), a job dispatcher that sends assigned
// colocations to the least-loaded machine, and per-machine daemons that
// execute work — the role played in the paper by five dual-socket Xeon
// nodes running a polling daemon.
//
// Execution is simulated on a virtual clock: a colocated pair's completion
// time stretches each job's standalone runtime by its contention penalty
// (the shorter job is re-run until the longer completes, per the paper's
// multiprogrammed-benchmarking methodology), so the cluster reports
// deterministic makespans and utilization. The clock is sequential
// arithmetic — a daemon is a queue position and a running sum, not a
// goroutine — and a dispatch solves each distinct colocation once.
package cluster

import (
	"fmt"
	"slices"

	"cooper/internal/arch"
	"cooper/internal/workload"
)

// Assignment is one dispatched unit of work: a pair of agents' jobs (or a
// single job running alone when AgentB < 0).
type Assignment struct {
	AgentA, AgentB int
	JobA, JobB     workload.Job
}

// Solo reports whether the assignment runs a single job.
func (a Assignment) Solo() bool { return a.AgentB < 0 }

// Result records one executed assignment.
type Result struct {
	Machine      string
	Assignment   Assignment
	StartS, EndS float64 // virtual start and completion times
	PenaltyA     float64 // contention penalty suffered by JobA
	PenaltyB     float64 // contention penalty suffered by JobB (0 if solo)
	DurationA    float64 // JobA's stretched runtime
	DurationB    float64 // JobB's stretched runtime
}

// Machine is one CMP and its daemon's virtual clock.
type Machine struct {
	ID  string
	CMP arch.CMP

	clock float64 // virtual time at which the machine becomes free
	busy  float64 // accumulated busy time
}

// Cluster is a set of machines fed by a dispatcher. Not safe for
// concurrent use: dispatches advance the machines' clocks and share the
// cluster's scratch.
type Cluster struct {
	machines []*Machine
	cache    *arch.PairCache

	// Scratch every dispatch reuses, so a dispatch no larger than the last
	// allocates nothing: the assignments' slots on the clocks, each
	// machine's queue as indices into placed, and the dispatch's memo of
	// solved colocations (emptied at the start of every dispatch), which
	// maps a pair's job names to its entry in solved.
	placed     []placement
	head, tail []int
	memo       map[colocation]int
	solved     []solved
}

// colocation keys the memo of solved colocations by the pair's job names.
type colocation struct{ a, b string }

// solved is a memoized colocation: the jobs it was solved for and their
// outcome.
type solved struct {
	jobA, jobB workload.Job
	outcome
}

// SetPairCache installs a memoization cache for the contention solves the
// virtual execution performs (one solo+pair equilibrium per distinct
// colocation of a dispatch). The cache must be keyed to the machines'
// CMP; a cache for different hardware is ignored. Nil uninstalls.
func (c *Cluster) SetPairCache(pc *arch.PairCache) {
	if pc != nil && len(c.machines) > 0 && !pc.Keyed(c.machines[0].CMP) {
		return
	}
	c.cache = pc
}

// New builds a cluster of n identical machines.
func New(n int, cmp arch.CMP) (*Cluster, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cluster: need at least one machine, got %d", n)
	}
	c := &Cluster{
		machines: make([]*Machine, n),
		head:     make([]int, n),
		tail:     make([]int, n),
		memo:     make(map[colocation]int),
	}
	for i := range c.machines {
		c.machines[i] = &Machine{
			ID:  fmt.Sprintf("node-%02d", i),
			CMP: cmp,
		}
	}
	return c, nil
}

// outcome is what executing one assignment yields: each job's contention
// penalty and stretched runtime (job B's are zero when A runs alone).
type outcome struct {
	penaltyA, penaltyB   float64
	durationA, durationB float64
}

// duration is how long the assignment occupies its machine.
func (o outcome) duration() float64 { return max(o.durationA, o.durationB) }

// placement is one assignment's slot on the virtual clock.
type placement struct {
	outcome
	startS float64
	next   int // the following assignment in the same machine's queue, -1 at its end
}

func (p *placement) endS() float64 { return p.startS + p.duration() }

// Dispatch assigns work to machines — each assignment goes to the machine
// that will start it earliest (least-loaded first, ties by machine index,
// so placement is deterministic) — and executes every machine's queue in
// order on its virtual clock. It returns all execution results ordered by
// start time, ties by machine ID (and by queue order within a machine).
func (c *Cluster) Dispatch(assignments []Assignment) []Result {
	results := make([]Result, 0, len(assignments))
	c.run(assignments, func(k, machine int, p *placement) {
		results = append(results, Result{
			Machine:    c.machines[machine].ID,
			Assignment: assignments[k],
			StartS:     p.startS,
			EndS:       p.endS(),
			PenaltyA:   p.penaltyA,
			PenaltyB:   p.penaltyB,
			DurationA:  p.durationA,
			DurationB:  p.durationB,
		})
	})
	return results
}

// Run dispatches like Dispatch and returns the round's report alone:
// Summarize(Dispatch(assignments)), without the results in between.
func (c *Cluster) Run(assignments []Assignment) Report {
	var t tally
	c.run(assignments, func(k, _ int, p *placement) {
		t.add(p.endS(), p.penaltyA, p.penaltyB, assignments[k].Solo())
	})
	return c.report(t)
}

// run is the one dispatch pass: it places and executes assignments on the
// machines' clocks, then calls emit for each in Dispatch's result order,
// with the assignment's index and its machine's.
func (c *Cluster) run(assignments []Assignment, emit func(k, machine int, p *placement)) {
	// Placing and executing are one step: an assignment starts when its
	// machine falls free and keeps it busy for the colocation's duration,
	// so the least-loaded machine is the one whose clock is lowest. A
	// colocation's outcome depends only on its two jobs, so each distinct
	// colocation is solved once per dispatch: the memo is keyed by the
	// pair's job names, an entry remembers the jobs it was solved for, and
	// a same-named pair that differs anywhere else (a re-calibrated model)
	// is solved on its own.
	clear(c.memo)
	c.solved = c.solved[:0]
	c.placed = slices.Grow(c.placed[:0], len(assignments))[:len(assignments)]
	placed, head, tail := c.placed, c.head, c.tail
	for b := range head {
		head[b], tail[b] = -1, -1
	}
	for k := range assignments {
		a := &assignments[k]
		o := outcome{durationA: a.JobA.RuntimeS}
		if !a.Solo() {
			key := colocation{a.JobA.Name, a.JobB.Name}
			if s, ok := c.memo[key]; ok && c.solved[s].jobA == a.JobA && c.solved[s].jobB == a.JobB {
				o = c.solved[s].outcome
			} else {
				o = execute(c.machines[0].CMP, a, c.cache)
				if !ok {
					c.memo[key] = len(c.solved)
					c.solved = append(c.solved, solved{a.JobA, a.JobB, o})
				}
			}
		}
		best := 0
		for b, m := range c.machines {
			if m.clock < c.machines[best].clock {
				best = b
			}
		}
		m := c.machines[best]
		placed[k] = placement{outcome: o, startS: m.clock, next: -1}
		if tail[best] < 0 {
			head[best] = k
		} else {
			placed[tail[best]].next = k
		}
		tail[best] = k
		m.clock += o.duration()
		m.busy += o.duration()
	}

	// Each machine's queue already ascends in start time: merge them.
	for range assignments {
		first := -1
		for b, k := range head {
			if k < 0 {
				continue
			}
			if first < 0 || placed[k].startS < placed[head[first]].startS ||
				placed[k].startS == placed[head[first]].startS && c.machines[b].ID < c.machines[first].ID {
				first = b
			}
		}
		k := head[first]
		head[first] = placed[k].next
		emit(k, first, &placed[k])
	}
}

// execute computes the simulated outcome of one colocated pair, routing
// the contention solves through cache when it serves cmp.
func execute(cmp arch.CMP, a *Assignment, cache *arch.PairCache) outcome {
	var soloA, soloB, perfA, perfB arch.Perf
	if cache.Keyed(cmp) {
		soloA = cache.Solo(a.JobA.Name, a.JobA.Model)
		soloB = cache.Solo(a.JobB.Name, a.JobB.Model)
		perfA, perfB = cache.Pair(a.JobA.Name, a.JobA.Model, a.JobB.Name, a.JobB.Model)
	} else {
		soloA = cmp.Solo(a.JobA.Model)
		soloB = cmp.Solo(a.JobB.Model)
		perfA, perfB = cmp.Pair(a.JobA.Model, a.JobB.Model)
	}
	dA := arch.Disutility(soloA, perfA)
	dB := arch.Disutility(soloB, perfB)
	return outcome{
		penaltyA:  dA,
		penaltyB:  dB,
		durationA: stretch(a.JobA.RuntimeS, dA),
		durationB: stretch(a.JobB.RuntimeS, dB),
	}
}

// stretch converts a throughput penalty into a runtime stretch: losing a
// fraction d of throughput lengthens the run by 1/(1-d).
func stretch(runtime, d float64) float64 {
	if d >= 1 {
		d = 0.99
	}
	if d < 0 {
		d = 0
	}
	return runtime / (1 - d)
}

// Report summarizes a dispatch round.
type Report struct {
	MakespanS      float64 // time until the last machine finishes
	BusyS          float64 // total machine-busy seconds
	UtilizationPct float64 // busy time / (machines x makespan)
	MeanPenalty    float64 // mean per-job contention penalty
	Jobs           int
}

// Summarize computes a Report over dispatch results for this cluster.
func (c *Cluster) Summarize(results []Result) Report {
	var t tally
	for i := range results {
		r := &results[i]
		t.add(r.EndS, r.PenaltyA, r.PenaltyB, r.Assignment.Solo())
	}
	return c.report(t)
}

// tally accumulates a round's executed assignments, in result order.
type tally struct {
	makespanS  float64
	penaltySum float64
	jobs       int
}

func (t *tally) add(endS, penaltyA, penaltyB float64, solo bool) {
	if endS > t.makespanS {
		t.makespanS = endS
	}
	t.jobs++
	t.penaltySum += penaltyA
	if !solo {
		t.jobs++
		t.penaltySum += penaltyB
	}
}

// report closes a tally against the machines' busy time.
func (c *Cluster) report(t tally) Report {
	rep := Report{MakespanS: t.makespanS, Jobs: t.jobs}
	for _, m := range c.machines {
		rep.BusyS += m.busy
	}
	if rep.Jobs > 0 {
		rep.MeanPenalty = t.penaltySum / float64(rep.Jobs)
	}
	if rep.MakespanS > 0 {
		rep.UtilizationPct = 100 * rep.BusyS / (float64(len(c.machines)) * rep.MakespanS)
	}
	return rep
}

// Reset clears all machine clocks.
func (c *Cluster) Reset() {
	for _, m := range c.machines {
		m.clock, m.busy = 0, 0
	}
}
