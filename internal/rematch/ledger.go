package rematch

import (
	"cmp"
	"fmt"
	"slices"

	"cooper/internal/matching"
)

// Agent is one live market participant tracked across epochs. The ID is
// stable for the agent's whole lifetime; Job indexes the penalty-matrix
// row (the catalog job class) the agent runs.
type Agent struct {
	ID  int
	Job int
}

// Delta is the population change one epoch must absorb: the new
// population, the prior matching mapped into its index space, and the
// agents whose assignments churn invalidated. Agents and Prev are views
// of the ledger's buffers, overwritten by its next Apply, like Moved;
// the other slices are the Delta's own.
type Delta struct {
	// Agents is the post-churn population in ledger order (survivors in
	// prior order, then joiners in arrival order); nil when it is empty.
	Agents []Agent
	// Prev is the prior stable matching re-indexed to Agents, never nil.
	// Dirty agents are Unmatched.
	Prev matching.Matching
	// Joined lists the indices (into Agents) admitted by this delta,
	// ascending.
	Joined []int
	// Departed lists the IDs removed by this delta, in request order.
	Departed []int
	// Dirty lists the indices whose assignment must be recomputed —
	// joiners plus partners displaced by departures plus any agent left
	// unassigned by an earlier failed epoch — ascending.
	Dirty []int
}

// Ledger tracks the live population and its last committed matching
// across epochs, accumulating churn until a full re-match resets it.
// It holds positions, not identities: partner[i] is agent i's partner as
// a position in agents, so absorbing churn is a few linear passes over
// reused buffers and builds no map. The zero value is ready to use. Not
// safe for concurrent use.
type Ledger struct {
	agents  []Agent
	partner []int // by position: partner position, matching.Unmatched (solo) or dirty
	nextID  int
	churn   int // joins + departures since the last full clear
	baseN   int // population size at the last full clear (0 = never cleared)

	// Scratch reused by every ApplyIDs: the request's IDs sorted, each
	// agent's position after the departures leave, and the Delta's Prev.
	departs, joins request
	moved          []int
	prev           matching.Matching
}

// dirty marks a partner entry whose assignment must be recomputed.
const dirty = -2

// request is one side of an ApplyIDs call's IDs, sorted for lookup.
type request struct {
	ids  []int  // the IDs ascending; a repeated ID is a run of equal entries
	at   []int  // ids[k]'s place in the request, ascending within a run
	live []bool // whether a live agent holds ids[k], set on a run's first entry
	next int    // where the last lookup ended
}

// sort refills r with ids.
func (r *request) sort(ids []int) {
	r.at = r.at[:0]
	for at := range ids {
		r.at = append(r.at, at)
	}
	slices.SortFunc(r.at, func(a, b int) int { return cmp.Or(cmp.Compare(ids[a], ids[b]), cmp.Compare(a, b)) })
	r.ids, r.live, r.next = r.ids[:0], r.live[:0], 0
	for _, at := range r.at {
		r.ids, r.live = append(r.ids, ids[at]), append(r.live, false)
	}
}

// mark records that a live agent holds id, if the request names it, and
// reports whether it does. A lookup starts where the last one ended and
// settles there in O(1) when id falls just after it, which is every
// lookup but k of them when the agents are passed over in ascending ID
// order — the ledger issues IDs in arrival order and survivors keep
// theirs. Any other lookup is a binary search.
func (r *request) mark(id int) bool {
	k := r.next
	if k > 0 && r.ids[k-1] >= id || k < len(r.ids) && r.ids[k] < id {
		k, _ = slices.BinarySearch(r.ids, id)
	}
	r.next = k
	if k < len(r.ids) && r.ids[k] == id {
		r.live[k] = true
		return true
	}
	return false
}

// firstWrong returns the request position of the first ID the request
// gets wrong, or -1: an ID for which wrong holds is wrong where it first
// appears, any other ID where it repeats (repeated is then true).
func (r *request) firstWrong(wrong func(id int, live bool) bool) (at int, repeated bool) {
	at = -1
	for g := 0; g < len(r.ids); {
		e := g + 1
		for e < len(r.ids) && r.ids[e] == r.ids[g] {
			e++
		}
		switch {
		case wrong(r.ids[g], r.live[g]):
			if at < 0 || r.at[g] < at {
				at, repeated = r.at[g], false
			}
		case e-g > 1:
			if at < 0 || r.at[g+1] < at {
				at, repeated = r.at[g+1], true
			}
		}
		g = e
	}
	return at, repeated
}

// Len reports the current population size.
func (l *Ledger) Len() int { return len(l.agents) }

// FullDue reports whether cumulative churn since the last full clear
// exceeds threshold×baseN, forcing the next epoch to re-match from
// scratch. A ledger that has never committed a full clear is always
// due. threshold <= 0 means DefaultChurnThreshold.
func (l *Ledger) FullDue(threshold float64) bool {
	if l.baseN == 0 {
		return true
	}
	if threshold <= 0 {
		threshold = DefaultChurnThreshold
	}
	return float64(l.churn) > threshold*float64(l.baseN)
}

// Apply absorbs one epoch's churn: departIDs leave (their partners are
// marked dirty), then one agent per job class in joinJobs arrives under
// a fresh ID — the ledger issues 0, 1, 2, … in arrival order. It
// returns the resulting Delta. Unknown depart IDs are an error; the
// ledger is unchanged on error.
func (l *Ledger) Apply(joinJobs []int, departIDs []int) (*Delta, error) {
	return l.ApplyIDs(nil, joinJobs, departIDs)
}

// ApplyIDs is Apply for callers that already name their agents (the
// wire coordinator's session IDs): joiner k arrives as joinIDs[k]
// instead of a ledger-issued ID. A joiner may not take the ID of a live
// agent — including one departing in this same call, whose displaced
// partner would be indistinguishable from the newcomer's — nor repeat
// another joiner's. joinIDs nil means ledger-issued IDs; IDs the ledger
// issues later never collide with caller-assigned ones.
//
// With n agents and k requested IDs it costs O(n + k log k) when the
// agents ascend by ID, as ledger-issued ones do, and O(n log k) at worst:
// the request is sorted, and every other step is a linear pass over
// buffers the ledger keeps.
func (l *Ledger) ApplyIDs(joinIDs, joinJobs []int, departIDs []int) (*Delta, error) {
	if joinIDs != nil && len(joinIDs) != len(joinJobs) {
		return nil, fmt.Errorf("rematch: %d join ids for %d joining jobs", len(joinIDs), len(joinJobs))
	}
	// Validate against the request's IDs sorted: one pass over the agents
	// marks which depart and which requested IDs are live, and a repeated
	// ID is a run of equal entries. Nothing is changed until the whole
	// request is known to be good.
	l.departs.sort(departIDs)
	l.joins.sort(joinIDs)
	l.moved = slices.Grow(l.moved[:0], len(l.agents))[:len(l.agents)]
	departing := 0
	for i, a := range l.agents {
		l.moved[i] = i - departing
		if l.departs.mark(a.ID) {
			l.moved[i] = -1
			departing++
		}
		l.joins.mark(a.ID)
	}
	if k, repeated := l.departs.firstWrong(func(_ int, live bool) bool { return !live }); k >= 0 {
		if repeated {
			return nil, fmt.Errorf("rematch: duplicate depart of agent id %d", departIDs[k])
		}
		return nil, fmt.Errorf("rematch: depart of unknown agent id %d", departIDs[k])
	}
	if k, _ := l.joins.firstWrong(func(id int, live bool) bool { return live || id < 0 }); k >= 0 {
		return nil, fmt.Errorf("rematch: join under agent id %d, which is negative or already in use", joinIDs[k])
	}

	// Compact the survivors in order. A departure displaces its partner:
	// the survivor loses its assignment and must be re-matched.
	for i, to := range l.moved {
		if to < 0 {
			continue
		}
		p := l.partner[i]
		if p >= 0 {
			p = l.moved[p]
			if p < 0 {
				p = dirty
			}
		}
		l.agents[to], l.partner[to] = l.agents[i], p
	}
	survivors := len(l.agents) - departing
	l.agents, l.partner = l.agents[:survivors], l.partner[:survivors]
	d := &Delta{Departed: append([]int(nil), departIDs...)}
	if len(joinJobs) > 0 {
		d.Joined = make([]int, 0, len(joinJobs))
	}
	for k, job := range joinJobs {
		id := l.nextID
		if joinIDs != nil {
			id = joinIDs[k]
		}
		l.nextID = max(l.nextID, id+1)
		l.agents = append(l.agents, Agent{ID: id, Job: job})
		l.partner = append(l.partner, dirty)
		d.Joined = append(d.Joined, len(l.agents)-1)
	}
	l.churn += len(departIDs) + len(joinJobs)

	if len(l.agents) > 0 {
		d.Agents = l.agents[:len(l.agents):len(l.agents)]
	}
	if l.prev == nil {
		l.prev = matching.Matching{}
	}
	l.prev = l.prev[:0]
	dirtyN := 0
	for _, p := range l.partner {
		if p == dirty {
			p = matching.Unmatched
			dirtyN++
		}
		l.prev = append(l.prev, p)
	}
	d.Prev = l.prev[:len(l.prev):len(l.prev)]
	if dirtyN > 0 {
		d.Dirty = make([]int, 0, dirtyN)
		for i, p := range l.partner {
			if p == dirty {
				d.Dirty = append(d.Dirty, i)
			}
		}
	}
	return d, nil
}

// Moved maps, after an Apply that succeeded, each agent's position
// before it to its index in the Delta's Agents, -1 for a departure. The
// slice is the ledger's, overwritten by its next Apply.
func (l *Ledger) Moved() []int { return l.moved }

// Commit records an epoch's final matching over the current population.
// full marks a from-scratch clear: the churn counter resets and the
// current size becomes the fallback baseline. match must cover the
// current population exactly.
func (l *Ledger) Commit(match matching.Matching, full bool) error {
	if len(match) != len(l.agents) {
		return fmt.Errorf("rematch: commit of %d assignments over %d agents", len(match), len(l.agents))
	}
	if err := match.Validate(); err != nil {
		return fmt.Errorf("rematch: commit: %w", err)
	}
	copy(l.partner, match)
	if full {
		l.churn = 0
		l.baseN = len(l.agents)
	}
	return nil
}
