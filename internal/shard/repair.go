package shard

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"slices"

	"cooper/internal/matching"
	"cooper/internal/parallel"
	"cooper/internal/rematch"
	"cooper/internal/stats"
	"cooper/internal/workload"
)

// RepairResult is the outcome of incrementally repairing a sharded
// matching around a churn delta.
type RepairResult struct {
	// Match is the repaired global matching.
	Match matching.Matching
	// ShardOf maps each agent index to its shard under the ID-keyed
	// partition.
	ShardOf []int
	// Neighborhood lists the agents whose proposals were re-run across
	// all shards, ascending.
	Neighborhood []int
	// Changed lists the agents whose partner differs from prev,
	// ascending.
	Changed []int
	// FallbackPairs counts cross-shard pairs formed for neighborhood
	// agents the shard-local repairs left unmatched.
	FallbackPairs int
}

// RepairScratch is what Market.Repair keeps from one call to the next: a
// neighbourhood scratch per worker and an RNG per shard, which each call
// reseeds in place with the shard's SplitSeed stream — the stream a
// fresh generator on that seed draws. The zero value is ready. Not safe
// for concurrent use.
type RepairScratch struct {
	nbhd []rematch.Scratch
	rngs []*rand.Rand
}

// Repair routes an incremental re-match through the sharded market:
// each dirty agent's repair runs on its owning shard (the ID-keyed
// consistent-hash partition, so survivors keep their shards under
// churn) over a shard-restricted neighborhood, in parallel on split
// RNG streams; neighborhood agents a shard-local repair leaves solo
// are then paired across shard boundaries greedily, lowest combined
// penalty first — the cross-shard fallback for displaced partners.
// prev is the prior stable matching over the same population; dirty
// lists the agent indices whose assignments churn invalidated (their
// prev entries must be Unmatched). Pairs wholly outside the
// neighborhood are untouched.
func (m *Market) Repair(ctx context.Context, jobs []workload.Job, jobIdx []int, matrix [][]float64, prev matching.Matching, dirty []int, topK int) (*RepairResult, error) {
	n := len(jobs)
	if m.Policy == nil {
		return nil, fmt.Errorf("shard: market needs a policy")
	}
	if len(jobIdx) != n {
		return nil, fmt.Errorf("shard: %d job indices for %d agents", len(jobIdx), n)
	}
	if len(prev) != n {
		return nil, fmt.Errorf("shard: prior matching covers %d agents, want %d", len(prev), n)
	}
	for _, i := range dirty {
		if i < 0 || i >= n {
			return nil, fmt.Errorf("shard: dirty agent %d outside population of %d", i, n)
		}
		if prev[i] != matching.Unmatched {
			return nil, fmt.Errorf("shard: dirty agent %d still carries assignment %d", i, prev[i])
		}
	}

	shardOf, groups, err := m.partition(jobs)
	if err != nil {
		return nil, err
	}
	shards := len(groups)
	p := matching.Penalties{Matrix: matrix, Class: jobIdx, Ranks: m.Ranks}.WithRanks()

	dirtyIn := make([][]int, shards)
	for _, i := range dirty {
		dirtyIn[shardOf[i]] = append(dirtyIn[shardOf[i]], i)
	}

	// Shard-local repairs in parallel: each shard computes its restricted
	// neighborhood and re-matches it among its members with a private
	// SplitSeed RNG stream; results land in per-shard slots so the merge
	// below is independent of scheduling.
	nbhds := make([][]int, shards)
	local := make([]matching.Matching, shards)
	rs := m.Repairs
	if rs == nil {
		rs = new(RepairScratch)
	}
	rs.nbhd = append(rs.nbhd, make([]rematch.Scratch, max(0, min(parallel.Workers(m.Workers), shards)-len(rs.nbhd)))...)
	rs.rngs = append(rs.rngs, make([]*rand.Rand, max(0, shards-len(rs.rngs)))...)
	err = parallel.ForEachWorker(ctx, m.Workers, shards, func(w, s int) error {
		if len(dirtyIn[s]) == 0 {
			return nil
		}
		// Keyed by shard, like Clear's shard spans: a counter-allocated ID
		// would depend on which worker opened its span first. Span must be
		// private to this call (the engine's per-round match span), since
		// two repairs under one parent would repeat the keys.
		sp := m.Tel.PhaseKeyed(m.Span, "repair-shard", int64(s))
		sp.SetAttr("shard", s)
		sp.SetAttr("dirty", len(dirtyIn[s]))
		defer m.Tel.End(sp)

		g := rematch.Neighborhood(dirtyIn[s], &rematch.Pool{Members: groups[s], ShardOf: shardOf, Shard: s}, prev, p, topK, &rs.nbhd[w])
		k := len(g)
		nbhds[s] = g
		if k < 2 {
			return nil
		}
		if rs.rngs[s] == nil {
			rs.rngs[s] = stats.NewRand(0)
		}
		rs.rngs[s].Seed(parallel.SplitSeed(m.Seed, int64(s)))
		lm, err := rematch.AssignWithin(g, p, func(i int) float64 { return jobs[i].BandwidthGBps },
			m.Policy, rs.rngs[s], m.Tel.Registry())
		if err != nil {
			return fmt.Errorf("shard %d repair (%d agents): %w", s, k, err)
		}
		local[s] = lm
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Merge: unlink every neighborhood agent (partners are in-pool by
	// the neighborhood's closure), then apply the shard-local repairs.
	// The shards' neighborhoods are disjoint; marked, they read back as
	// their union, ascending.
	match := append(matching.Matching(nil), prev...)
	in, size := make([]bool, n), 0
	for s := 0; s < shards; s++ {
		for _, i := range nbhds[s] {
			if p := match[i]; p != matching.Unmatched && match[p] == i {
				match[p] = matching.Unmatched
			}
			match[i], in[i] = matching.Unmatched, true
		}
		size += len(nbhds[s])
	}
	for s := 0; s < shards; s++ {
		for a, b := range local[s] {
			if b != matching.Unmatched {
				match[nbhds[s][a]] = nbhds[s][b]
			}
		}
	}
	nbhd := make([]int, 0, size)
	for i, in := range in {
		if in {
			nbhd = append(nbhd, i)
		}
	}

	// Cross-shard fallback: neighborhood agents the shard-local repairs
	// left solo (odd neighborhood sizes) pair across shard boundaries,
	// lowest combined penalty first, disjointly. Same-shard leftovers
	// stay solo — their shard's policy chose that.
	var leftover []int
	for _, i := range nbhd {
		if match[i] == matching.Unmatched {
			leftover = append(leftover, i)
		}
	}
	res := &RepairResult{ShardOf: shardOf, Neighborhood: nbhd}
	if len(leftover) > 1 {
		type cand struct {
			i, j int
			cost float64
		}
		var cands []cand
		for x := 0; x < len(leftover); x++ {
			for y := x + 1; y < len(leftover); y++ {
				i, j := leftover[x], leftover[y]
				if shardOf[i] == shardOf[j] {
					continue
				}
				cands = append(cands, cand{i: i, j: j, cost: p.At(i, j) + p.At(j, i)})
			}
		}
		slices.SortFunc(cands, func(a, b cand) int {
			return cmp.Or(cmp.Compare(a.cost, b.cost), cmp.Compare(a.i, b.i), cmp.Compare(a.j, b.j))
		})
		for _, c := range cands {
			if match[c.i] == matching.Unmatched && match[c.j] == matching.Unmatched {
				match[c.i], match[c.j] = c.j, c.i
				res.FallbackPairs++
			}
		}
	}
	if err := match.Validate(); err != nil {
		return nil, fmt.Errorf("shard: repaired matching invalid: %w", err)
	}
	res.Match = match
	for _, i := range nbhd {
		if match[i] != prev[i] {
			res.Changed = append(res.Changed, i)
		}
	}
	return res, nil
}
