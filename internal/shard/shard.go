// Package shard implements Cooper's sharded colocation market: the
// CARMA-style decomposition that takes the epoch pipeline from one
// all-pairs O(n²) market to many independent sub-markets cleared in
// parallel, plus a bounded cross-shard refinement pass that reconciles
// the boundaries.
//
// Agents are placed on shards by consistent hashing over (job class,
// bandwidth bucket, agent position): the class and bucket give colocated
// demand a stable home, the position spreads same-class agents so no
// shard degenerates into one job. Each shard then runs the configured
// colocation policy over its own members with a private RNG stream
// derived via parallel.SplitSeed, so the merged matching is bit-identical
// at any worker count. Finally, refinement trades blocking pairs across
// shard boundaries: each round picks the most dissatisfied agents,
// finds cross-shard pairs in which both sides gain more than alpha, and
// greedily applies disjoint trades best-gain-first until no such pair
// remains or the round budget is exhausted.
//
// Nothing in this package materializes an agent-level penalty matrix, of
// the population or of a shard. Penalties are looked up through the
// job-level matrix (the agent-level penalty of a pair is the matrix entry
// for their jobs), so memory is linear in the population.
package shard

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strconv"

	"cooper/internal/agent"
	"cooper/internal/matching"
	"cooper/internal/parallel"
	"cooper/internal/policy"
	"cooper/internal/rematch"
	"cooper/internal/stats"
	"cooper/internal/telemetry"
	"cooper/internal/workload"
)

const (
	// RefinementRounds is the maximum number of cross-shard refinement
	// rounds per clear.
	RefinementRounds = 4
	// refinementCandidates bounds how many of the most dissatisfied agents
	// each refinement round considers for cross-shard trades. The bound is
	// what keeps refinement sub-quadratic: a round inspects at most
	// candidates² pairs regardless of population size, and picking the
	// candidates is a bounded selection (dissatisfied), O(n log
	// candidates), not a sort of the whole market.
	refinementCandidates = 128

	// virtualNodes is the number of ring points per shard. Enough that
	// shard loads stay within a few percent of each other, small enough
	// that building the ring stays negligible next to matching.
	virtualNodes = 64

	// bandwidthBucketGBps is the granularity of the bandwidth component of
	// the hash key: agents within the same 4 GB/s band share a bucket.
	bandwidthBucketGBps = 4.0
)

// Ring is a consistent-hash ring mapping agent keys onto shards. The
// assignment of a key depends only on the shard count, never on the
// population, so an agent keeps its shard as others come and go.
type Ring struct {
	shards int
	hashes []uint64
	owner  []int
}

// NewRing builds a ring with virtualNodes points per shard. shards < 1 is
// treated as 1.
func NewRing(shards int) *Ring {
	if shards < 1 {
		shards = 1
	}
	r := &Ring{
		shards: shards,
		hashes: make([]uint64, 0, shards*virtualNodes),
		owner:  make([]int, 0, shards*virtualNodes),
	}
	type point struct {
		h     uint64
		shard int
	}
	points := make([]point, 0, shards*virtualNodes)
	var buf [48]byte
	for s := 0; s < shards; s++ {
		for v := 0; v < virtualNodes; v++ {
			points = append(points, point{hash64(appendVnodeLabel(buf[:0], s, v)), s})
		}
	}
	sort.Slice(points, func(a, b int) bool {
		if points[a].h != points[b].h {
			return points[a].h < points[b].h
		}
		// A 64-bit collision between vnode labels is effectively
		// impossible, but break it deterministically anyway.
		return points[a].shard < points[b].shard
	})
	for _, p := range points {
		r.hashes = append(r.hashes, p.h)
		r.owner = append(r.owner, p.shard)
	}
	return r
}

// appendVnodeLabel appends the label a ring point is hashed from,
// "shard-<s>-vnode-<v>".
func appendVnodeLabel(buf []byte, s, v int) []byte {
	buf = append(buf, "shard-"...)
	buf = strconv.AppendInt(buf, int64(s), 10)
	buf = append(buf, "-vnode-"...)
	return strconv.AppendInt(buf, int64(v), 10)
}

// owning returns the shard owning hash h: the first ring point at or
// after h, wrapping around.
func (r *Ring) owning(h uint64) int {
	if r.shards == 1 {
		return 0
	}
	i := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	if i == len(r.hashes) {
		i = 0
	}
	return r.owner[i]
}

// appendKey appends the consistent-hash key for agent i running job,
// "<job>|<bucket>|<i>": the job class and bandwidth bucket anchor the
// key, the position spreads same-class agents across shards.
func appendKey(buf []byte, job string, bandwidthGBps float64, i int) []byte {
	buf = append(buf, job...)
	buf = append(buf, '|')
	buf = strconv.AppendInt(buf, int64(int(bandwidthGBps/bandwidthBucketGBps)), 10)
	buf = append(buf, '|')
	return strconv.AppendInt(buf, int64(i), 10)
}

// ShardOf returns the shard of the agent running job under the hash
// identity id — the one definition of which shard an agent belongs to.
// It depends on nothing but the ring's shard count, the job and the id,
// so whoever keeps an agent across epochs may keep its shard with it.
func (r *Ring) ShardOf(job workload.Job, id int) int {
	var buf [64]byte
	return r.owning(hash64(appendKey(buf[:0], job.Name, job.BandwidthGBps, id)))
}

// PartitionIDs assigns every agent of the population to a shard. It
// returns shardOf (agent index → shard) and the member lists per shard,
// each in ascending agent order. Agent i is keyed by ids[i], so in a
// streaming market — where departures shift positions — a surviving
// agent keeps its shard as others come and go. ids nil means position
// keying.
func (r *Ring) PartitionIDs(jobs []workload.Job, ids []int) (shardOf []int, groups [][]int) {
	shardOf = make([]int, len(jobs))
	for i, j := range jobs {
		id := i
		if ids != nil {
			id = ids[i]
		}
		shardOf[i] = r.ShardOf(j, id)
	}
	return shardOf, group(shardOf, r.shards)
}

// group lists each shard's members in ascending agent order.
func group(shardOf []int, shards int) [][]int {
	sizes := make([]int, shards)
	for _, s := range shardOf {
		sizes[s]++
	}
	members := make([]int, len(shardOf)) // every group's backing array
	groups := make([][]int, shards)
	for s, size := range sizes {
		groups[s], members = members[:0:size], members[size:]
	}
	for i, s := range shardOf {
		groups[s] = append(groups[s], i)
	}
	return groups
}

// hash64 is 64-bit FNV-1a.
func hash64(key []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// JobIndices maps each job name to its row in the catalog, the index
// space of the job-level penalty matrix.
func JobIndices(catalog []workload.Job, jobs []string) ([]int, error) {
	byName := make(map[string]int, len(catalog))
	for i, j := range catalog {
		byName[j.Name] = i
	}
	idx := make([]int, len(jobs))
	for i, name := range jobs {
		j, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("shard: job %q not in catalog", name)
		}
		idx[i] = j
	}
	return idx, nil
}

// Market clears one epoch's colocation market across shards.
type Market struct {
	// Shards is the shard count; < 1 means 1.
	Shards int
	// Policy clears each shard. Required.
	Policy policy.Policy
	// Alpha is the minimum mutual gain for refinement trades and blocking
	// partners, the paper's Figure 10 criterion.
	Alpha float64
	// Workers bounds the per-shard fan-out (<= 0 means GOMAXPROCS). Any
	// value yields bit-identical results.
	Workers int
	// Seed derives the per-shard RNG streams via parallel.SplitSeed.
	Seed int64
	// Epoch stamps the flight-recorder events.
	Epoch int
	// IDs maps agent indices to the event-log ID space (wire AgentIDs for
	// netproto, nil for the identity mapping of in-process epochs).
	IDs []int
	// ShardOf, when non-nil, is the population's partition as the caller
	// already knows it (agent index → shard, what Ring.ShardOf returns for
	// each agent under IDs): an engine that keeps agents across rounds
	// keeps their shards too and spares the round the hashing. Nil means
	// the market partitions the population itself.
	ShardOf []int
	// Tel receives per-shard spans and shard_matched/refinement_round
	// events. Nil disables observability.
	Tel *telemetry.Telemetry
	// Span, when non-nil, parents the per-shard spans.
	Span *telemetry.Span
	// Ranks is the matrix's preference table (matching.Rank), which the
	// market engine builds once and every shard reads; nil means Clear
	// and Repair rank the matrix once per call, for every shard.
	Ranks []int32
	// Repairs, when non-nil, is Repair's working memory kept from one
	// call to the next: an engine that repairs every round holds one.
	// Nil means each Repair builds its own. Results are identical either
	// way.
	Repairs *RepairScratch
	// SkipRecommendations suppresses the per-shard recommendation pass.
	// The market engine always sets it: its agents assess against the
	// whole population (rematch.Assess), not within their shard.
	SkipRecommendations bool
}

// Result is the outcome of clearing a sharded market.
type Result struct {
	// Match is the merged global matching.
	Match matching.Matching
	// ShardOf maps each agent index to its shard.
	ShardOf []int
	// Groups lists each shard's members in ascending agent order.
	Groups [][]int
	// Recommendations are the agents' strategic assessments against the
	// refined matching, computed shard-locally (each agent exchanges
	// messages within its shard, as a decentralized deployment would).
	Recommendations []agent.Recommendation
	// RefinementRounds and RefinementTrades summarize the cross-shard
	// refinement pass.
	RefinementRounds int
	RefinementTrades int
}

// Clear partitions the population, clears every shard in parallel under
// the configured policy, applies bounded cross-shard refinement, and
// computes shard-local recommendations against the final matching.
// jobs[i] is agent i's job, jobIdx[i] its row in the job-level penalty
// matrix. The matrix is never expanded to agents.
func (m *Market) Clear(ctx context.Context, jobs []workload.Job, jobIdx []int, matrix [][]float64) (*Result, error) {
	n := len(jobs)
	if m.Policy == nil {
		return nil, fmt.Errorf("shard: market needs a policy")
	}
	if len(jobIdx) != n {
		return nil, fmt.Errorf("shard: %d job indices for %d agents", len(jobIdx), n)
	}
	for i, j := range jobIdx {
		if j < 0 || j >= len(matrix) {
			return nil, fmt.Errorf("shard: agent %d job index %d outside %d-job matrix", i, j, len(matrix))
		}
		if len(matrix[j]) != len(matrix) {
			return nil, fmt.Errorf("shard: matrix row %d has %d entries, want %d", j, len(matrix[j]), len(matrix))
		}
	}
	shardOf, groups, err := m.partition(jobs)
	if err != nil {
		return nil, err
	}
	shards := len(groups)
	p := matching.Penalties{Matrix: matrix, Class: jobIdx, Ranks: m.Ranks}.WithRanks()

	// Clear every shard concurrently. Each shard sees only its own
	// members and a private SplitSeed RNG stream; results land in
	// per-shard slots, so the merge below is independent of scheduling.
	// Shard spans are keyed by shard index (PhaseKeyed, not Phase): a
	// counter-allocated span ID would depend on which worker created its
	// span first, and the causal IDs must be schedule-independent.
	local := make([]matching.Matching, shards)
	spans := make([]*telemetry.Span, shards)
	err = parallel.ForEach(ctx, m.Workers, shards, func(s int) error {
		g := groups[s]
		if len(g) == 0 {
			return nil
		}
		sp := m.Tel.PhaseKeyed(m.Span, "shard", int64(s))
		sp.SetAttr("shard", s)
		sp.SetAttr("agents", len(g))
		spans[s] = sp
		defer m.Tel.End(sp)

		lm, err := rematch.AssignWithin(g, p, func(i int) float64 { return jobs[i].BandwidthGBps },
			m.Policy, stats.NewRand(parallel.SplitSeed(m.Seed, int64(s))), m.Tel.Registry())
		if err != nil {
			return fmt.Errorf("shard %d (%d agents): %w", s, len(g), err)
		}
		local[s] = lm
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Merge shard-local matchings into the global index space and emit
	// one shard_matched event per shard — in shard order, on the calling
	// goroutine, after the fan-out joined, so the event sequence is
	// invariant to worker count.
	match := make(matching.Matching, n)
	for i := range match {
		match[i] = matching.Unmatched
	}
	for s, g := range groups {
		for a, b := range local[s] {
			if b != matching.Unmatched {
				match[g[a]] = g[b]
			}
		}
	}
	if m.Tel.EventRing() != nil { // an unobserved clear builds no events
		for s, g := range groups {
			members := make([]int, len(g))
			for a, i := range g {
				members[a] = m.id(i)
			}
			data, _ := json.Marshal(members)
			// Each shard_matched event stamps under its shard's span (keyed,
			// so the IDs match across runs); an empty shard has no span and
			// falls back to the parent.
			sp := spans[s]
			if sp == nil {
				sp = m.Span
			}
			m.Tel.RecordIn(sp, telemetry.Event{
				Type: telemetry.EventShardMatched, Epoch: m.Epoch,
				Agent: -1, Partner: -1, Round: s,
				Value: float64(len(g)), Data: string(data),
			})
		}
	}

	res := &Result{Match: match, ShardOf: shardOf, Groups: groups}
	m.refine(res, p.At)
	if m.SkipRecommendations {
		return res, nil
	}

	// Recommendations against the final matching, one shard at a time in
	// parallel, each agent's result written to its own slot: the agents'
	// message exchange confined to shard co-members, uncapped.
	recs := make([]agent.Recommendation, n)
	err = parallel.ForEach(ctx, m.Workers, shards, func(s int) error {
		g := groups[s]
		for a, rec := range rematch.RecommendationsWithin(g, p, match, m.Alpha, len(g)) {
			recs[g[a]] = rec
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Recommendations = recs
	return res, nil
}

// partition returns the population's shards and their member lists: the
// caller's partition when it supplied one, the ring's otherwise.
func (m *Market) partition(jobs []workload.Job) (shardOf []int, groups [][]int, err error) {
	n, shards := len(jobs), max(m.Shards, 1)
	if m.IDs != nil && len(m.IDs) != n {
		return nil, nil, fmt.Errorf("shard: %d event IDs for %d agents", len(m.IDs), n)
	}
	if m.ShardOf == nil {
		shardOf, groups = NewRing(shards).PartitionIDs(jobs, m.IDs)
		return shardOf, groups, nil
	}
	if len(m.ShardOf) != n {
		return nil, nil, fmt.Errorf("shard: partition covers %d agents, want %d", len(m.ShardOf), n)
	}
	for i, s := range m.ShardOf {
		if s < 0 || s >= shards {
			return nil, nil, fmt.Errorf("shard: agent %d placed on shard %d of %d", i, s, shards)
		}
	}
	return m.ShardOf, group(m.ShardOf, shards), nil
}

func (m *Market) id(i int) int {
	if m.IDs == nil {
		return i
	}
	return m.IDs[i]
}

// current returns agent i's predicted penalty under match (solo agents
// run alone at zero penalty, the paper's convention).
func current(i int, match matching.Matching, pen func(i, j int) float64) float64 {
	if match[i] == matching.Unmatched {
		return 0
	}
	return pen(i, match[i])
}

// trade is one cross-shard rewiring candidate: pair i with j, both
// gaining more than alpha over their current assignments.
type trade struct {
	i, j int
	gain float64
}

// candidate is an agent and its current predicted penalty.
type candidate struct {
	p float64
	i int
}

// ahead orders refinement candidates: higher current penalty first,
// index tie-break.
func ahead(x, y candidate) int { return cmp.Or(cmp.Compare(y.p, x.p), cmp.Compare(x.i, y.i)) }

// dissatisfied returns the refinementCandidates most dissatisfied agents
// of match with their current penalties, in ahead order: the head of a
// full sort of the market, picked by a bounded selection in O(n log k)
// with one penalty lookup per agent. Solo agents carry zero penalty and
// only surface once everyone dissatisfied is in.
func dissatisfied(match matching.Matching, pen func(i, j int) float64) []candidate {
	h := make([]candidate, min(refinementCandidates, len(match)))
	for i := range h {
		h[i] = candidate{current(i, match, pen), i}
	}
	// Ranked last first, h is a heap whose root is the kept candidate
	// ranked last: a newcomer enters only by getting ahead of it.
	slices.SortFunc(h, func(x, y candidate) int { return ahead(y, x) })
	for i := len(h); i < len(match); i++ {
		c := candidate{current(i, match, pen), i}
		if ahead(c, h[0]) > 0 {
			continue
		}
		h[0] = c
		for x := 0; ; {
			last := x
			for _, child := range [2]int{2*x + 1, 2*x + 2} {
				if child < len(h) && ahead(h[child], h[last]) > 0 {
					last = child
				}
			}
			if last == x {
				break
			}
			h[x], h[last] = h[last], h[x]
			x = last
		}
	}
	slices.SortFunc(h, ahead)
	return h
}

// refine runs the bounded cross-shard refinement loop on res.Match,
// recording one refinement_round event per applied round.
func (m *Market) refine(res *Result, pen func(i, j int) float64) {
	if len(res.Groups) < 2 {
		return
	}
	for round := 1; round <= RefinementRounds; round++ {
		// Each round gets its own span — keyed by round number so the ID
		// is run-stable — which is what puts per-round durations of
		// cross-shard trades in Chrome traces, not just the event log.
		// The final tradeless round keeps its span too (it shows the cost
		// of the convergence check) but emits no event.
		sp := m.Tel.PhaseKeyed(m.Span, "refinement_round", int64(round))
		trades, gain := m.refineOnce(res, pen)
		if len(trades) == 0 {
			m.Tel.End(sp)
			break
		}
		res.RefinementRounds = round
		res.RefinementTrades += len(trades)
		sp.SetAttr("round", round)
		sp.SetAttr("trades", len(trades))
		sp.SetAttr("gain", gain)
		m.Tel.End(sp)
		if m.Tel.EventRing() == nil {
			continue
		}
		pairs := make([][2]int, len(trades))
		for k, t := range trades {
			pairs[k] = [2]int{m.id(t.i), m.id(t.j)}
		}
		data, _ := json.Marshal(pairs)
		m.Tel.RecordIn(sp, telemetry.Event{
			Type: telemetry.EventRefinementRound, Epoch: m.Epoch,
			Agent: -1, Partner: -1, Round: round,
			Value: float64(len(trades)), Predicted: gain,
			Data: string(data),
		})
	}
}

// refineOnce selects and applies one round of disjoint cross-shard
// trades, best combined gain first, and returns the trades applied.
func (m *Market) refineOnce(res *Result, pen func(i, j int) float64) ([]trade, float64) {
	match := res.Match
	order := dissatisfied(match, pen)

	// Every cross-shard pair of candidates in which both sides gain more
	// than alpha is a candidate trade.
	var proposals []trade
	for x := 0; x < len(order); x++ {
		for y := x + 1; y < len(order); y++ {
			i, j := order[x].i, order[y].i
			if res.ShardOf[i] == res.ShardOf[j] || match[i] == j {
				continue
			}
			gi := order[x].p - pen(i, j)
			gj := order[y].p - pen(j, i)
			if gi > m.Alpha && gj > m.Alpha {
				a, b := i, j
				if a > b {
					a, b = b, a
				}
				proposals = append(proposals, trade{i: a, j: b, gain: gi + gj})
			}
		}
	}
	sort.Slice(proposals, func(a, b int) bool {
		if proposals[a].gain != proposals[b].gain {
			return proposals[a].gain > proposals[b].gain
		}
		if proposals[a].i != proposals[b].i {
			return proposals[a].i < proposals[b].i
		}
		return proposals[a].j < proposals[b].j
	})

	// Greedily apply disjoint trades. A trade touches i, j, and their
	// abandoned partners, so all four are locked; the precomputed gains
	// stay exact because no applied trade overlaps another.
	used := make(map[int]bool)
	var applied []trade
	var total float64
	for _, t := range proposals {
		pi, pj := match[t.i], match[t.j]
		if used[t.i] || used[t.j] {
			continue
		}
		if pi != matching.Unmatched && used[pi] {
			continue
		}
		if pj != matching.Unmatched && used[pj] {
			continue
		}
		match[t.i], match[t.j] = t.j, t.i
		// Abandoned partners pair with each other when both exist — the
		// trade conserves colocation count — and run solo otherwise.
		switch {
		case pi != matching.Unmatched && pj != matching.Unmatched:
			match[pi], match[pj] = pj, pi
		case pi != matching.Unmatched:
			match[pi] = matching.Unmatched
		case pj != matching.Unmatched:
			match[pj] = matching.Unmatched
		}
		used[t.i], used[t.j] = true, true
		if pi != matching.Unmatched {
			used[pi] = true
		}
		if pj != matching.Unmatched {
			used[pj] = true
		}
		applied = append(applied, t)
		total += t.gain
	}
	return applied, total
}
