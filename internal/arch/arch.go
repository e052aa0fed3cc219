// Package arch models the shared hardware that Cooper's colocations
// contend for: a chip multiprocessor (CMP) with private cores, a shared
// last-level cache, and a shared memory channel.
//
// The paper measures real Spark/PARSEC jobs on dual-socket Xeon E5-2697v2
// servers. This package substitutes an analytic contention model with the
// same qualitative behaviour:
//
//   - each task is described by a small set of microarchitectural
//     parameters (base CPI, LLC accesses per instruction, working set,
//     compulsory miss floor);
//   - a task's LLC miss ratio follows a miss-ratio curve (MRC) of its
//     allocated capacity;
//   - colocated tasks split the LLC at a demand-proportional equilibrium
//     (more insertions win more ways, as in a shared LRU cache);
//   - aggregate bandwidth demand beyond the channel's capacity inflates
//     memory latency through an M/M/1-style queueing term.
//
// Solving the coupled fixed point (cache shares depend on miss rates, miss
// rates depend on shares; latency depends on bandwidth, bandwidth depends
// on latency) yields each task's colocated throughput, from which the
// colocation game's disutility d = 1 - T_colocated/T_standalone follows.
package arch

import (
	"fmt"
	"math"

	"cooper/internal/telemetry"
)

// CMP describes one chip multiprocessor. The default configuration mirrors
// the paper's evaluation server: a 12-core / 24-thread Xeon E5-2697 v2 at
// 2.7 GHz with a 30 MB L3, four DDR3-1866 channels (~59.7 GB/s), and
// colocated jobs dividing the threads equally.
type CMP struct {
	Name string

	Cores     int     // physical cores per CMP
	Threads   int     // hardware threads per CMP
	FreqHz    float64 // core clock
	LLCBytes  float64 // shared last-level cache capacity
	LineBytes float64 // cache line size

	MemBWBytes float64 // peak memory bandwidth, bytes/s
	// MissCycles is the effective stall penalty per LLC miss at low memory
	// load, in core cycles, already discounted for memory-level
	// parallelism (a raw ~200-cycle DRAM access overlapped ~8 ways).
	MissCycles float64
	// QueueCritical is the utilization beyond which queueing delay is
	// pinned, keeping the latency model finite when demand exceeds supply.
	QueueCritical float64

	// StaticCachePartition, when set, gives each colocated task an equal
	// fixed slice of the LLC instead of the shared-LRU equilibrium —
	// modeling way-partitioning isolation (the related-work hardware
	// mechanisms the paper contrasts with bare-metal sharing). Memory
	// bandwidth remains shared.
	StaticCachePartition bool
}

// DefaultCMP returns the evaluation server model described above.
func DefaultCMP() CMP {
	return CMP{
		Name:          "xeon-e5-2697v2",
		Cores:         12,
		Threads:       24,
		FreqHz:        2.7e9,
		LLCBytes:      30 << 20,
		LineBytes:     64,
		MemBWBytes:    59.7e9,
		MissCycles:    26,
		QueueCritical: 0.95,
	}
}

// Validate reports whether the configuration is usable.
func (c CMP) Validate() error {
	switch {
	case c.Cores <= 0 || c.Threads <= 0:
		return fmt.Errorf("arch: CMP %q needs positive cores/threads", c.Name)
	case c.FreqHz <= 0:
		return fmt.Errorf("arch: CMP %q needs positive frequency", c.Name)
	case c.LLCBytes <= 0 || c.LineBytes <= 0:
		return fmt.Errorf("arch: CMP %q needs positive cache geometry", c.Name)
	case c.MemBWBytes <= 0 || c.MissCycles <= 0:
		return fmt.Errorf("arch: CMP %q needs positive memory parameters", c.Name)
	case c.QueueCritical <= 0 || c.QueueCritical >= 1:
		return fmt.Errorf("arch: CMP %q needs QueueCritical in (0,1)", c.Name)
	}
	return nil
}

// TaskModel is the microarchitectural description of one task. Colocation
// policies never see these parameters directly — they see only throughputs
// and counters, as on real hardware.
type TaskModel struct {
	// CPI0 is the core-bound cycles per instruction assuming every LLC
	// access hits.
	CPI0 float64
	// API is the number of LLC accesses per instruction (roughly, L2
	// misses per instruction).
	API float64
	// WSBytes is the working-set scale of the task's miss-ratio curve.
	WSBytes float64
	// MissFloor is the compulsory/streaming miss ratio that no amount of
	// cache eliminates. Streaming analytics have floors near 1; cache-
	// friendly kernels near 0.
	MissFloor float64
	// ThreadScale in (0,1] derates throughput for imperfect parallel
	// scaling across the task's threads.
	ThreadScale float64
}

// Validate reports whether the task model is usable.
func (t TaskModel) Validate() error {
	switch {
	case t.CPI0 <= 0:
		return fmt.Errorf("arch: task needs positive CPI0, got %v", t.CPI0)
	case t.API < 0:
		return fmt.Errorf("arch: task needs non-negative API, got %v", t.API)
	case t.WSBytes <= 0:
		return fmt.Errorf("arch: task needs positive working set, got %v", t.WSBytes)
	case t.MissFloor < 0 || t.MissFloor > 1:
		return fmt.Errorf("arch: miss floor %v outside [0,1]", t.MissFloor)
	case t.ThreadScale <= 0 || t.ThreadScale > 1:
		return fmt.Errorf("arch: thread scale %v outside (0,1]", t.ThreadScale)
	}
	return nil
}

// MissRatio evaluates the task's miss-ratio curve at an allocated cache
// capacity of c bytes: an exponential decay from 1 toward the compulsory
// floor as capacity approaches the working set.
func (t TaskModel) MissRatio(c float64) float64 {
	if c < 0 {
		c = 0
	}
	return t.MissFloor + (1-t.MissFloor)*math.Exp(-c/t.WSBytes)
}

// Perf is the simulated performance of one task under some colocation.
type Perf struct {
	// IPS is aggregate instructions per second across the task's threads.
	IPS float64
	// BandwidthBytes is the task's consumed memory bandwidth, bytes/s.
	BandwidthBytes float64
	// CacheBytes is the task's equilibrium share of the LLC.
	CacheBytes float64
	// MissRatio is the task's LLC miss ratio at that share.
	MissRatio float64
	// MemUtilization is the channel utilization seen during the run.
	MemUtilization float64
}

// solverIters bounds the coupled cache/bandwidth fixed-point iteration.
// The system contracts quickly; 64 iterations is far beyond what the
// damped updates need to converge to 1e-9, and the loop exits early once
// the latency and share updates fall below latencyTol / shareTolBytes.
const solverIters = 64

// latencyTol is the absolute convergence tolerance on the per-miss
// latency update, in core cycles; shareTolBytes is the tolerance on cache
// share movement. Both sit orders of magnitude below any quantity the
// model reports, so early exit does not perturb results beyond ~1e-10.
const (
	latencyTol    = 1e-9
	shareTolBytes = 1.0
)

// Solo returns the standalone performance of a task running on half the
// CMP's threads (the paper's baseline: standalone and colocated runs use
// the same core allocation, so disutility isolates contention) with the
// whole LLC and memory channel to itself.
func (c CMP) Solo(t TaskModel) Perf { return c.soloIn(t, nil) }

// soloIn is Solo, counting the solve in reg (solve).
func (c CMP) soloIn(t TaskModel, reg *telemetry.Registry) Perf {
	return c.solve([]TaskModel{t}, []float64{c.LLCBytes}, reg)[0]
}

// Pair returns the performance of two colocated tasks splitting the CMP's
// threads equally and contending for the shared LLC and memory channel.
func (c CMP) Pair(a, b TaskModel) (Perf, Perf) { return c.pairIn(a, b, nil) }

// pairIn is Pair, counting the solve in reg (solve).
func (c CMP) pairIn(a, b TaskModel, reg *telemetry.Registry) (Perf, Perf) {
	half := c.LLCBytes / 2
	perfs := c.solve([]TaskModel{a, b}, []float64{half, half}, reg)
	return perfs[0], perfs[1]
}

// Colocate generalizes Pair to any number of co-runners splitting the
// CMP's threads equally (used by the hierarchical >2-co-runner extension).
func (c CMP) Colocate(tasks []TaskModel) []Perf {
	if len(tasks) == 0 {
		return nil
	}
	shares := make([]float64, len(tasks))
	for i := range shares {
		shares[i] = c.LLCBytes / float64(len(tasks))
	}
	return c.solve(tasks, shares, nil)
}

// solve computes the coupled equilibrium for tasks sharing this CMP,
// starting from the given initial cache shares, and counts the solve and
// its fixed-point iterations in reg's arch.solver_calls and
// arch.solver_iters (nil counts nothing). Each task runs on Threads/2
// hardware threads (the paper's equal division for pairs; for n-way
// colocation the thread share shrinks accordingly).
func (c CMP) solve(tasks []TaskModel, shares []float64, reg *telemetry.Registry) []Perf {
	n := len(tasks)
	threadsEach := float64(c.Threads) / 2
	if n > 2 {
		threadsEach = float64(c.Threads) / float64(n)
	}
	coresEach := threadsEach / 2 // two hardware threads per physical core

	latency := c.MissCycles
	ips := make([]float64, n)
	bw := make([]float64, n)
	miss := make([]float64, n)
	util := 0.0

	iters := 0
	for iter := 0; iter < solverIters; iter++ {
		iters++
		// 1. Miss ratios and throughput at current shares and latency.
		var demand float64
		for i, t := range tasks {
			miss[i] = t.MissRatio(shares[i])
			mpi := t.API * miss[i] // LLC misses per instruction
			cpi := t.CPI0 + mpi*latency
			ips[i] = c.FreqHz * coresEach * t.ThreadScale / cpi
			bw[i] = ips[i] * mpi * c.LineBytes
			demand += bw[i]
		}

		// 2. Memory queueing: utilization inflates per-miss latency.
		util = demand / c.MemBWBytes
		rho := math.Min(util, c.QueueCritical)
		// Half-weight M/M/1-style inflation: DRAM scheduling (bank-level
		// parallelism, write draining) softens queueing well below the
		// textbook curve, and the paper's measured penalties for
		// contentious pairs top out near 30-35%.
		newLatency := c.MissCycles * (1 + 0.5*rho*rho/(1-rho))
		// If demand still exceeds capacity at pinned latency, the channel
		// is saturated; throughput degrades in proportion (handled below
		// via the latency term staying pinned and the bandwidth rescale).

		// 3. Cache shares: demand-proportional equilibrium. A task's
		// share of a shared LRU cache tracks its share of insertions
		// (miss traffic). Under static partitioning the initial equal
		// shares are left untouched.
		shareDelta := 0.0
		if n > 1 && !c.StaticCachePartition {
			var totalMissRate float64
			rates := make([]float64, n)
			for i := range tasks {
				rates[i] = ips[i] * tasks[i].API * miss[i]
				totalMissRate += rates[i]
			}
			if totalMissRate > 0 {
				for i := range shares {
					target := c.LLCBytes * rates[i] / totalMissRate
					// Damp the update to keep the fixed point stable.
					next := 0.5*shares[i] + 0.5*target
					if d := math.Abs(next - shares[i]); d > shareDelta {
						shareDelta = d
					}
					shares[i] = next
				}
			}
		}

		latDelta := math.Abs(0.5 * (newLatency - latency))
		latency = 0.5*latency + 0.5*newLatency
		if latDelta < latencyTol && shareDelta < shareTolBytes {
			break
		}
	}
	reg.Counter("arch.solver_calls").Inc()
	reg.Counter("arch.solver_iters").Add(int64(iters))

	// Saturated channel: when total demand exceeds the physical peak, the
	// channel delivers only its capacity and every task's memory-bound
	// progress scales down proportionally.
	var demand float64
	for i := range tasks {
		demand += bw[i]
	}
	if demand > c.MemBWBytes {
		scale := c.MemBWBytes / demand
		for i, t := range tasks {
			mpi := t.API * miss[i]
			if mpi <= 0 {
				continue
			}
			// Memory-bound fraction of the task's time is throttled by
			// scale; compute-bound fraction is unaffected.
			cpi := t.CPI0 + mpi*latency
			memFrac := mpi * latency / cpi
			slowdown := (1 - memFrac) + memFrac/scale
			ips[i] /= slowdown
			bw[i] = ips[i] * mpi * c.LineBytes
		}
	}

	perfs := make([]Perf, n)
	for i := range tasks {
		perfs[i] = Perf{
			IPS:            ips[i],
			BandwidthBytes: bw[i],
			CacheBytes:     shares[i],
			MissRatio:      miss[i],
			MemUtilization: util,
		}
	}
	return perfs
}

// Disutility returns the colocation game's penalty for a task:
// d = 1 - Throughput_colocated / Throughput_standalone, clamped to [0, 1].
func Disutility(solo, colocated Perf) float64 {
	if solo.IPS <= 0 {
		return 0
	}
	d := 1 - colocated.IPS/solo.IPS
	if d < 0 {
		return 0
	}
	if d > 1 {
		return 1
	}
	return d
}

// CalibrateAPI solves for the LLC-accesses-per-instruction value that makes
// the task's standalone bandwidth on machine c equal target bytes/s, using
// bisection (standalone bandwidth is strictly increasing in API). The
// workload catalog uses this to pin each synthetic job to the memory
// bandwidth column the paper reports in Table I.
func CalibrateAPI(c CMP, t TaskModel, targetBW float64) (float64, error) {
	if err := c.Validate(); err != nil {
		return 0, err
	}
	if targetBW < 0 {
		return 0, fmt.Errorf("arch: negative target bandwidth %v", targetBW)
	}
	if targetBW == 0 {
		return 0, nil
	}
	soloAt := func(api float64) float64 {
		t.API = api
		return c.Solo(t).BandwidthBytes
	}
	lo, hi := 0.0, 1.0
	for soloAt(hi) < targetBW {
		hi *= 2
		if hi > 1e6 {
			return 0, fmt.Errorf("arch: target bandwidth %v B/s unreachable on %s",
				targetBW, c.Name)
		}
	}
	for i := 0; i < 80; i++ {
		mid := (lo + hi) / 2
		if soloAt(mid) < targetBW {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}
