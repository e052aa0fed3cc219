// Package agent implements Cooper's decentralized agents. An agent acts
// on a user's behalf: it is built with its predicted penalty row (New)
// and — once the coordinator assigns colocations — assesses the
// assignment and recommends strategic action: participate in the shared
// system, or break away with mutually preferring partners.
//
// The action recommender follows the paper's message-exchange protocol
// (§IV-B): an agent sends a message to every agent it prefers over its
// assigned co-runner; receiving such a message from an agent it also
// prefers reveals a blocking pair.
package agent

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"cooper/internal/matching"
)

// Action is an agent's strategic recommendation to its user.
type Action int

// Possible recommendations.
const (
	// Participate: the assignment satisfies the agent's preferences well
	// enough that no mutually better partner exists.
	Participate Action = iota
	// BreakAway: at least one blocking partner exists; the agent
	// recommends forming a separate subsystem with one of them.
	BreakAway
)

// String returns the action name.
func (a Action) String() string {
	switch a {
	case Participate:
		return "participate"
	case BreakAway:
		return "break-away"
	}
	return fmt.Sprintf("Action(%d)", int(a))
}

// Agent represents one user and her job in the colocation game.
type Agent struct {
	// ID is the agent's index in the population.
	ID int
	// JobName is the catalog application the agent runs.
	JobName string
	// Penalties is the agent's predicted disutility with every candidate
	// co-runner (its row of the completed penalty matrix).
	Penalties []float64

	inbox chan int
}

// New returns an agent with the given predicted penalty row.
func New(id int, jobName string, penalties []float64) *Agent {
	return &Agent{
		ID:        id,
		JobName:   jobName,
		Penalties: penalties,
		inbox:     make(chan int, len(penalties)),
	}
}

// preferredOver returns the agents this agent strictly prefers (by more
// than alpha) over its assigned partner. An unmatched agent runs alone
// with zero penalty, so it prefers nobody.
func (a *Agent) preferredOver(partner int, alpha float64) []int {
	current := 0.0
	if partner != matching.Unmatched {
		current = a.Penalties[partner]
	}
	var better []int
	for j := range a.Penalties {
		if j == a.ID || j == partner {
			continue
		}
		if current-a.Penalties[j] > alpha {
			better = append(better, j)
		}
	}
	return better
}

// Recommendation is the action recommender's output for one agent.
type Recommendation struct {
	AgentID int
	Action  Action
	// BlockingPartners lists agents that mutually prefer this agent, best
	// first. Exchange and rematch.Recommendations fill it; the market
	// engine's assessment (rematch.Assess) leaves it nil and counts the
	// blocking pairs instead.
	BlockingPartners []int
	// ExpectedGain is the penalty reduction from pairing with the best
	// blocking partner (zero when participating).
	ExpectedGain float64
}

// Exchange runs the message-exchange protocol over a population of agents
// and their assigned matching: each agent messages everyone it prefers
// over its co-runner (by more than alpha); agents then cross incoming
// messages with their own preferences to identify blocking partners. The
// exchange runs concurrently, one goroutine per agent, as in the paper's
// distributed Java implementation.
//
// It is the reference protocol: the market engine computes the same
// Action and ExpectedGain, and the number of blocking pairs, from the
// job-level matrix without per-agent rows (rematch.Assess), and tests hold
// the two equal.
func Exchange(agents []*Agent, match matching.Matching, alpha float64) ([]Recommendation, error) {
	n := len(agents)
	if len(match) != n {
		return nil, fmt.Errorf("agent: %d agents but matching of %d", n, len(match))
	}
	for i, a := range agents {
		if a.ID != i {
			return nil, fmt.Errorf("agent: agent at position %d has ID %d", i, a.ID)
		}
		if len(a.Penalties) != n {
			return nil, fmt.Errorf("agent: agent %d has %d penalties, want %d",
				i, len(a.Penalties), n)
		}
		// Fresh inbox sized for the worst case of messages from everyone.
		a.inbox = make(chan int, n)
	}

	// Phase 1: every agent sends its preference messages concurrently.
	var wg sync.WaitGroup
	for _, a := range agents {
		wg.Add(1)
		go func(a *Agent) {
			defer wg.Done()
			for _, j := range a.preferredOver(match[a.ID], alpha) {
				agents[j].inbox <- a.ID
			}
		}(a)
	}
	wg.Wait()
	for _, a := range agents {
		close(a.inbox)
	}

	// Phase 2: every agent crosses received messages with its own
	// preferences.
	recs := make([]Recommendation, n)
	for _, a := range agents {
		wg.Add(1)
		go func(a *Agent) {
			defer wg.Done()
			prefer := make(map[int]bool)
			for _, j := range a.preferredOver(match[a.ID], alpha) {
				prefer[j] = true
			}
			var blocking []int
			for sender := range a.inbox {
				if prefer[sender] {
					blocking = append(blocking, sender)
				}
			}
			// Ties on penalty (agents running the same job) break by ID:
			// inbox arrival order is scheduling-dependent, and the
			// pipeline guarantees bit-identical reports across runs.
			sort.Slice(blocking, func(x, y int) bool {
				px, py := a.Penalties[blocking[x]], a.Penalties[blocking[y]]
				if px != py {
					return px < py
				}
				return blocking[x] < blocking[y]
			})
			rec := Recommendation{AgentID: a.ID, Action: Participate}
			if len(blocking) > 0 {
				current := 0.0
				if match[a.ID] != matching.Unmatched {
					current = a.Penalties[match[a.ID]]
				}
				rec.Action = BreakAway
				rec.BlockingPartners = blocking
				rec.ExpectedGain = current - a.Penalties[blocking[0]]
			}
			recs[a.ID] = rec
		}(a)
	}
	wg.Wait()
	return recs, nil
}

// BlockingPairsFromRecommendations reconstructs the set of mutual blocking
// pairs from agents' recommendations (each pair counted once, i < j,
// ascending). Agent IDs are population indices — non-negative, below 2³² —
// and the work space is linear in the largest one.
func BlockingPairsFromRecommendations(recs []Recommendation) [][2]int {
	// A listing is one end of a pair naming the other; a mutual pair is
	// listed from both ends, a capped list may name it from one only.
	// Bucket the listings by the pair's lower agent — a counting sort, so
	// the buckets come out ascending — then order each bucket's handful of
	// upper agents and drop the repeats.
	total, buckets := 0, 0
	for _, r := range recs {
		total += len(r.BlockingPartners)
		for _, j := range r.BlockingPartners {
			buckets = max(buckets, min(r.AgentID, j)+1)
		}
	}
	bounds := make([]int, buckets+1) // bucket lo is uppers[bounds[lo]:bounds[lo+1]]
	for _, r := range recs {
		for _, j := range r.BlockingPartners {
			bounds[min(r.AgentID, j)+1]++
		}
	}
	for lo := 0; lo < buckets; lo++ {
		bounds[lo+1] += bounds[lo]
	}
	uppers := make([]uint32, total)
	ends := slices.Clone(bounds[:buckets]) // where bucket lo's filled part ends
	for _, r := range recs {
		for _, j := range r.BlockingPartners {
			lo := min(r.AgentID, j)
			uppers[ends[lo]] = uint32(max(r.AgentID, j))
			ends[lo]++
		}
	}
	distinct := 0
	for lo := 0; lo < buckets; lo++ {
		bucket := uppers[bounds[lo]:ends[lo]]
		slices.Sort(bucket)
		ends[lo] = bounds[lo] + len(slices.Compact(bucket))
		distinct += ends[lo] - bounds[lo]
	}
	pairs := make([][2]int, 0, distinct)
	for lo := 0; lo < buckets; lo++ {
		for _, hi := range uppers[bounds[lo]:ends[lo]] {
			pairs = append(pairs, [2]int{lo, int(hi)})
		}
	}
	return pairs
}
