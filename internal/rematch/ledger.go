package rematch

import (
	"fmt"
	"sort"

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
// agents whose assignments churn invalidated.
type Delta struct {
	// Agents is the post-churn population in ledger order (survivors in
	// prior order, then joiners in arrival order).
	Agents []Agent
	// Prev is the prior stable matching re-indexed to Agents. Dirty
	// agents are Unmatched.
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
// The zero value is ready to use. Not safe for concurrent use.
type Ledger struct {
	agents    []Agent
	partnerOf map[int]int // agent ID → partner ID; Unmatched = solo; absent = dirty
	nextID    int
	churn     int // joins + departures since the last full clear
	baseN     int // population size at the last full clear (0 = never cleared)
}

// Len reports the current population size.
func (l *Ledger) Len() int { return len(l.agents) }

// Churn reports joins plus departures accumulated since the last full
// clear, and the population size that clear matched.
func (l *Ledger) Churn() (churn, baseN int) { return l.churn, l.baseN }

// FullDue reports whether cumulative churn since the last full clear
// exceeds threshold×baseN, forcing the next epoch to re-match from
// scratch. A ledger that has never committed a full clear is always
// due. threshold <= 0 means DefaultChurnThreshold.
func (l *Ledger) FullDue(threshold float64) bool {
	if l.baseN == 0 {
		return true
	}
	return float64(l.churn) > ThresholdOrDefault(threshold)*float64(l.baseN)
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
func (l *Ledger) ApplyIDs(joinIDs, joinJobs []int, departIDs []int) (*Delta, error) {
	if joinIDs != nil && len(joinIDs) != len(joinJobs) {
		return nil, fmt.Errorf("rematch: %d join ids for %d joining jobs", len(joinIDs), len(joinJobs))
	}
	byID := make(map[int]int, len(l.agents))
	for i, a := range l.agents {
		byID[a.ID] = i
	}
	departing := make(map[int]bool, len(departIDs))
	for _, id := range departIDs {
		if _, ok := byID[id]; !ok {
			return nil, fmt.Errorf("rematch: depart of unknown agent id %d", id)
		}
		if departing[id] {
			return nil, fmt.Errorf("rematch: duplicate depart of agent id %d", id)
		}
		departing[id] = true
	}
	for _, id := range joinIDs {
		if _, used := byID[id]; used || id < 0 {
			return nil, fmt.Errorf("rematch: join under agent id %d, which is negative or already in use", id)
		}
		byID[id] = -1 // claimed by a joiner; positions are rebuilt below
	}
	if l.partnerOf == nil {
		l.partnerOf = make(map[int]int)
	}
	// Departures displace their partners: the survivor loses its
	// assignment and must be re-matched.
	for id := range departing {
		if p, ok := l.partnerOf[id]; ok {
			delete(l.partnerOf, id)
			if p != matching.Unmatched && !departing[p] {
				delete(l.partnerOf, p)
			}
		}
	}
	survivors := l.agents[:0]
	for _, a := range l.agents {
		if !departing[a.ID] {
			survivors = append(survivors, a)
		}
	}
	l.agents = survivors
	d := &Delta{Departed: append([]int(nil), departIDs...)}
	for k, job := range joinJobs {
		id := l.nextID
		if joinIDs != nil {
			id = joinIDs[k]
		}
		l.nextID = max(l.nextID, id+1)
		l.agents = append(l.agents, Agent{ID: id, Job: job})
		d.Joined = append(d.Joined, len(l.agents)-1)
	}
	l.churn += len(departIDs) + len(joinJobs)

	d.Agents = append([]Agent(nil), l.agents...)
	d.Prev = make(matching.Matching, len(l.agents))
	clear(byID)
	for i, a := range l.agents {
		byID[a.ID] = i
	}
	for i, a := range l.agents {
		p, ok := l.partnerOf[a.ID]
		switch {
		case !ok:
			d.Prev[i] = matching.Unmatched
			d.Dirty = append(d.Dirty, i)
		case p == matching.Unmatched:
			d.Prev[i] = matching.Unmatched
		default:
			d.Prev[i] = byID[p]
		}
	}
	sort.Ints(d.Dirty)
	return d, nil
}

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
	l.partnerOf = make(map[int]int, len(l.agents))
	for i, p := range match {
		if p == matching.Unmatched {
			l.partnerOf[l.agents[i].ID] = matching.Unmatched
		} else {
			l.partnerOf[l.agents[i].ID] = l.agents[p].ID
		}
	}
	if full {
		l.churn = 0
		l.baseN = len(l.agents)
	}
	return nil
}
