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
// arithmetic — a daemon is a clock and a running sum, not a goroutine —
// and a dispatch solves each distinct colocation once.
package cluster

import (
	"fmt"
	"slices"
	"strings"

	"cooper/internal/arch"
	"cooper/internal/matching"
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
	// tieByID is set when machine IDs do not sort like indices (past 100
	// machines "node-100" sorts before "node-11"), so a run of equal
	// starts must be reordered by ID before it is emitted.
	tieByID bool

	// Scratch every dispatch reuses, so a RunMatching no larger than the
	// last allocates nothing: the row-pair table of solved colocations,
	// stamped with the dispatch that solved them, and the run of
	// equal-start placements held for ID order. Dispatch also keeps its
	// batch's catalog, the row of each name, and the agents' rows and
	// matching.
	memo        []memoSlot
	stamp       uint64
	tie         []placement
	jobs        []workload.Job
	byName      map[string]int
	rows, match []int
}

// memoRows bounds the row-pair table at memoRows² slots, so a large
// catalog, or a Dispatch batch of thousands of distinct or re-calibrated
// jobs, does not build a table quadratic in them; a colocation with a row
// past it is solved without the table.
const memoRows = 256

// memoSlot is one row pair's outcome, valid in the dispatch whose stamp
// it carries.
type memoSlot struct {
	stamp uint64
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
	c := &Cluster{machines: make([]*Machine, n), byName: make(map[string]int)}
	for i := range c.machines {
		c.machines[i] = &Machine{ID: fmt.Sprintf("node-%02d", i), CMP: cmp}
	}
	c.tieByID = !slices.IsSortedFunc(c.machines, byID)
	return c, nil
}

func byID(a, b *Machine) int { return strings.Compare(a.ID, b.ID) }

// outcome is what executing one assignment yields: each job's contention
// penalty and stretched runtime (job B's are zero when A runs alone).
type outcome struct {
	penaltyA, penaltyB   float64
	durationA, durationB float64
}

// duration is how long the assignment occupies its machine.
func (o outcome) duration() float64 { return max(o.durationA, o.durationB) }

// placement is one colocation's slot on the virtual clock: agent i's,
// alone or with its partner, on a machine.
type placement struct {
	outcome
	i, machine int
	solo       bool
	startS     float64
}

func (p *placement) endS() float64 { return p.startS + p.duration() }

// Dispatch assigns work to machines — each assignment goes to the machine
// that will start it earliest (least-loaded first, ties by machine index,
// so placement is deterministic) — and executes it on that machine's
// virtual clock. It returns all execution results ordered by start time,
// ties by machine ID (and by batch order within a machine); a negative or
// NaN runtime breaks that order (see run).
//
// Dispatch rides RunMatching's pass: the batch's jobs are its catalog
// and assignment k is agents 2k and 2k+1. A job that shares a name with
// the first one seen but differs anywhere else (a re-calibrated model)
// gets a row of its own at every appearance, so it never shares an
// outcome.
func (c *Cluster) Dispatch(assignments []Assignment) []Result {
	clear(c.byName)
	c.jobs = c.jobs[:0]
	n := 2 * len(assignments)
	c.rows, c.match = slices.Grow(c.rows[:0], n)[:n], slices.Grow(c.match[:0], n)[:n]
	for k := range assignments {
		a := &assignments[k]
		c.rows[2*k], c.match[2*k], c.match[2*k+1] = c.row(&a.JobA), 2*k+1, 2*k
		if a.Solo() {
			c.match[2*k] = matching.Unmatched
		} else {
			c.rows[2*k+1] = c.row(&a.JobB)
		}
	}
	results := make([]Result, 0, len(assignments))
	c.run(c.jobs, c.rows, c.match, func(p placement) {
		results = append(results, Result{Machine: c.machines[p.machine].ID, Assignment: assignments[p.i/2],
			StartS: p.startS, EndS: p.endS(), PenaltyA: p.penaltyA, PenaltyB: p.penaltyB,
			DurationA: p.durationA, DurationB: p.durationB})
	})
	return results
}

// row is job's row in Dispatch's catalog. The first job seen under a
// name owns the name's row; a job that differs from it gets a new row at
// every appearance, so it is solved each time, as the name-keyed memo
// before it solved such a pair, and a lookup stays O(1).
func (c *Cluster) row(job *workload.Job) int {
	r, ok := c.byName[job.Name]
	if !ok || c.jobs[r] != *job {
		r, c.jobs = len(c.jobs), append(c.jobs, *job)
		if !ok {
			c.byName[job.Name] = r
		}
	}
	return r
}

// RunMatching dispatches one round of a matching and returns its report:
// agent i runs catalog[rows[i]], alone when match[i] is Unmatched and
// with match[i] when i < match[i], and the colocations go to the machines
// in agent order. The report equals Summarize of what Dispatch returns
// for the same colocations as Assignments, bit for bit.
func (c *Cluster) RunMatching(catalog []workload.Job, rows []int, match matching.Matching) Report {
	var t tally
	c.run(catalog, rows, match, func(p placement) {
		t.add(p.endS(), p.penaltyA, p.penaltyB, p.solo)
	})
	return c.report(t)
}

// run is the one dispatch pass. Each colocation starts when the machine
// with the lowest clock (ties to the lower index) falls free and keeps it
// busy for its duration, and emit gets it at once: clocks only grow, so
// starts never decrease, and equal starts fill machines in ascending
// index, which is ID order up to 100 machines. Past that a run of equal
// starts is held and emitted in ID order. A negative duration (from a
// runtime BuildCatalog rejects) or a NaN one breaks the premise, and emit
// sees placement order, not start order: a negative one turns a clock
// back, and a NaN clock never compares lowest, so machine 0 at NaN takes
// every later colocation and any other machine at NaN takes none. An
// infinite duration parks its machine at +Inf behind every finite clock,
// and the order holds.
//
// A colocation's outcome depends only on its two catalog rows, so each
// distinct row pair is solved once per dispatch: the row-pair table
// holds it under this dispatch's stamp, and the next dispatch's stamp
// retires it.
func (c *Cluster) run(catalog []workload.Job, rows []int, match matching.Matching, emit func(placement)) {
	n := min(len(catalog), memoRows)
	if len(c.memo) < n*n {
		c.memo = make([]memoSlot, n*n)
	}
	c.stamp++
	for i, j := range match {
		p := placement{i: i, solo: j == matching.Unmatched}
		switch {
		case p.solo:
			p.durationA = catalog[rows[i]].RuntimeS
		case i < j:
			p.outcome = c.solve(catalog, rows[i], rows[j], n)
		default:
			continue
		}
		low := c.machines[0].clock
		for b, m := range c.machines {
			if m.clock < low {
				p.machine, low = b, m.clock
			}
		}
		m := c.machines[p.machine]
		p.startS = m.clock
		m.clock += p.duration()
		m.busy += p.duration()
		if !c.tieByID {
			emit(p)
			continue
		}
		if len(c.tie) > 0 && c.tie[0].startS != p.startS {
			c.flush(emit)
		}
		c.tie = append(c.tie, p)
	}
	c.flush(emit)
}

// flush emits the held run of equal starts in machine-ID order (a stable
// sort keeps each machine's own placements in order).
func (c *Cluster) flush(emit func(placement)) {
	slices.SortStableFunc(c.tie, func(x, y placement) int {
		return byID(c.machines[x.machine], c.machines[y.machine])
	})
	for _, p := range c.tie {
		emit(p)
	}
	c.tie = c.tie[:0]
}

// solve returns the outcome of rows a and b colocated, from the row-pair
// table (stride n) when both rows fit it.
func (c *Cluster) solve(catalog []workload.Job, a, b, n int) outcome {
	s := &memoSlot{}
	if a < n && b < n {
		s = &c.memo[a*n+b]
	}
	if s.stamp != c.stamp {
		s.stamp, s.outcome = c.stamp, execute(c.machines[0].CMP, &Assignment{JobA: catalog[a], JobB: catalog[b]}, c.cache)
	}
	return s.outcome
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
	dA, dB := arch.Disutility(soloA, perfA), arch.Disutility(soloB, perfB)
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
