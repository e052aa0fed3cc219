package arch

import (
	"fmt"
	"sync"

	"cooper/internal/telemetry"
)

// PairCache memoizes the analytic contention solver's results for catalog
// job pairs on one CMP configuration. The solver is deterministic, so a
// (job, co-runner) pair always yields the same equilibrium on the same
// machine — and several layers ask for it: the oracle penalty matrix
// (which solves every catalog pair once, the cache's warm-up), the
// cluster's virtual execution of each distinct colocation it dispatches,
// and the reference assessment that simulates a matching pair by pair
// (policy.TruePenalties). A shared cache makes every solve after the
// first a lookup.
//
// Keys are catalog job names plus the CMP configuration fixed at
// construction; callers must not reuse one cache across machines or
// across catalogs that give different models the same name (Keyed
// rejects a different CMP). Tasks with empty names bypass the cache.
// Safe for concurrent use.
type PairCache struct {
	cmp CMP
	reg *telemetry.Registry

	mu    sync.RWMutex
	solo  map[string]Perf
	pairs map[pairKey][2]Perf
}

type pairKey struct{ a, b string }

// NewPairCache returns an empty cache bound to machine c. Hit/miss
// traffic lands in reg's cache.pair_hits, cache.pair_misses,
// cache.solo_hits, cache.solo_misses counters and the cache.size gauge,
// and the solves the cache makes in arch.solver_calls and
// arch.solver_iters; a nil registry disables accounting.
func NewPairCache(c CMP, reg *telemetry.Registry) *PairCache {
	return &PairCache{
		cmp:   c,
		reg:   reg,
		solo:  make(map[string]Perf),
		pairs: make(map[pairKey][2]Perf),
	}
}

// Keyed reports whether the cache serves machine c. Callers that accept
// an optional cache use it to fall back to direct solves when handed a
// cache built for different hardware.
func (pc *PairCache) Keyed(c CMP) bool { return pc != nil && pc.cmp == c }

// Machine returns the CMP configuration the cache is bound to.
func (pc *PairCache) Machine() CMP {
	if pc == nil {
		return CMP{}
	}
	return pc.cmp
}

// Solo returns the standalone performance of the named task, memoized.
// An empty name bypasses the cache and solves directly. The receiver
// must be non-nil (gate optional caches with Keyed at the call site).
func (pc *PairCache) Solo(name string, t TaskModel) Perf {
	if name == "" {
		return pc.cmp.soloIn(t, pc.reg)
	}
	pc.mu.RLock()
	p, ok := pc.solo[name]
	pc.mu.RUnlock()
	if ok {
		pc.reg.Counter("cache.solo_hits").Inc()
		return p
	}
	pc.reg.Counter("cache.solo_misses").Inc()
	p = pc.cmp.soloIn(t, pc.reg)
	pc.mu.Lock()
	pc.solo[name] = p
	pc.size()
	pc.mu.Unlock()
	return p
}

// Pair returns both sides' performance for the named colocation,
// memoized under the unordered name pair. Empty names bypass the cache
// and solve directly. The receiver must be non-nil (gate optional caches
// with Keyed at the call site).
func (pc *PairCache) Pair(aName string, a TaskModel, bName string, b TaskModel) (Perf, Perf) {
	if aName == "" || bName == "" {
		return pc.cmp.pairIn(a, b, pc.reg)
	}
	key := pairKey{aName, bName}
	swapped := false
	if bName < aName {
		key = pairKey{bName, aName}
		swapped = true
	}
	pc.mu.RLock()
	ps, ok := pc.pairs[key]
	pc.mu.RUnlock()
	if ok {
		pc.reg.Counter("cache.pair_hits").Inc()
		if swapped {
			return ps[1], ps[0]
		}
		return ps[0], ps[1]
	}
	pc.reg.Counter("cache.pair_misses").Inc()
	var pa, pb Perf
	if swapped {
		pb, pa = pc.cmp.pairIn(b, a, pc.reg)
		ps = [2]Perf{pb, pa}
	} else {
		pa, pb = pc.cmp.pairIn(a, b, pc.reg)
		ps = [2]Perf{pa, pb}
	}
	pc.mu.Lock()
	pc.pairs[key] = ps
	pc.size()
	pc.mu.Unlock()
	return pa, pb
}

// Stats returns the cumulative hit and miss counts (pairs plus solos).
// Without a registry both are zero.
func (pc *PairCache) Stats() (hits, misses int64) {
	if pc == nil || pc.reg == nil {
		return 0, 0
	}
	hits = pc.reg.Counter("cache.pair_hits").Value() +
		pc.reg.Counter("cache.solo_hits").Value()
	misses = pc.reg.Counter("cache.pair_misses").Value() +
		pc.reg.Counter("cache.solo_misses").Value()
	return hits, misses
}

// HitRate returns hits/(hits+misses), or 0 before any traffic.
func (pc *PairCache) HitRate() float64 {
	hits, misses := pc.Stats()
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// Len returns the number of memoized entries (solo plus pair).
func (pc *PairCache) Len() int {
	if pc == nil {
		return 0
	}
	pc.mu.RLock()
	defer pc.mu.RUnlock()
	return len(pc.solo) + len(pc.pairs)
}

// size records the entry count; callers hold pc.mu.
func (pc *PairCache) size() {
	pc.reg.Gauge("cache.size").Set(float64(len(pc.solo) + len(pc.pairs)))
}

// String renders the cache's occupancy and traffic for debug output.
func (pc *PairCache) String() string {
	hits, misses := pc.Stats()
	return fmt.Sprintf("paircache{machine=%s entries=%d hits=%d misses=%d}",
		pc.Machine().Name, pc.Len(), hits, misses)
}
