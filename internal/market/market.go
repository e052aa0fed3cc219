// Package market is Cooper's one market engine: the orchestration layer
// between the matching algorithms (policy, shard, rematch) and the two
// drivers that feed it populations — core.Framework in process and
// netproto.Server over the wire. The paper's Figure 6 has a single
// coordinator pipeline, and §III-A batches arrivals into it
// periodically; every epoch of either driver runs through here.
//
// The engine owns what both drivers would otherwise repeat: routing a
// round to the sharded or the single all-pairs market, dispatching the
// policy, the churn ledger and its full-versus-repair decision, the
// flight-log bracket (epoch_start and the epoch snapshot … epoch_end) and
// the keyed epoch, match, shard and refinement spans. Drivers keep what
// is theirs: the framework profiles, predicts, measures true penalties
// and dispatches to the cluster; the server manages sessions, framing,
// deadlines and reaping.
//
// Penalties have one representation here and below, the job-level lookup
// matrix[JobIdx[i]][JobIdx[j]] (the type-based formulation: an agent's
// penalty depends only on its own and its partner's job class). Policies
// match over it and agents are assessed over it; no agents×agents matrix
// is built anywhere on the engine's path, sharded or not, except inside
// SR, whose Irving table keeps n×n active flags
// (cooper.TestPolicyClearGrowth declares it O(n²)).
package market

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"

	"cooper/internal/matching"
	"cooper/internal/policy"
	"cooper/internal/rematch"
	"cooper/internal/shard"
	"cooper/internal/telemetry"
	"cooper/internal/workload"
)

// Config groups the knobs of the colocation market itself: which policy
// clears it, the stability threshold agents assess against, how the
// market is sharded at scale, and how churn is absorbed.
type Config struct {
	// Policy assigns colocations. Nil means StableMarriageRandom, the
	// paper's recommended policy.
	Policy policy.Policy
	// Alpha is the minimum performance gain for which an agent recommends
	// breaking away (and, in the sharded market, the minimum mutual gain
	// for a cross-shard refinement trade).
	Alpha float64
	// Shards splits the market into consistent-hash shards cleared in
	// parallel, with bounded cross-shard refinement reconciling the
	// boundaries (see internal/shard). Values <= 1 mean the single
	// unsharded market, which reproduces the classic pipeline exactly.
	Shards int
	// Rematch enables the streaming market: churn is admitted mid-stream
	// and the standing matching repaired incrementally (see
	// internal/rematch) instead of re-cleared from scratch.
	Rematch bool
	// ChurnThreshold is the fraction of the population whose cumulative
	// churn since the last full clear forces the next round to re-match
	// from scratch (<= 0 means rematch.DefaultChurnThreshold).
	ChurnThreshold float64
}

// Engine clears and repairs one driver's market. Build it with New; the
// exported fields are the driver's wiring and must not change afterwards.
// Not safe for concurrent use: epochs share the RNG, the ledger, the
// epoch counter and the working memory, so drivers run them one at a
// time.
type Engine struct {
	Config
	// Workers bounds the sharded market's per-shard fan-out (<= 0 means
	// GOMAXPROCS). Matchings are bit-identical at any worker count.
	Workers int
	// Catalog names the rows of Matrix; every roster job must be in it.
	Catalog []workload.Job
	// Matrix is the job-level predicted penalty matrix the policy sees.
	// New ranks it once (matching.Rank) and every epoch reads that
	// table, so it must not change after New.
	Matrix [][]float64
	// Rand drives the policy's randomness: the unsharded market draws
	// from it directly, a sharded round draws one seed for its per-shard
	// streams.
	Rand *rand.Rand
	// Tel receives spans, events and counters; its Trace parents the
	// epoch spans. Nil disables observability.
	Tel *telemetry.Telemetry
	// Source, Seed and Kernel identify the run in epoch snapshots
	// (telemetry.SnapshotSourceCore or SnapshotSourceWire).
	Source string
	Seed   int64
	Kernel string
	// Contract declares Alpha a stability contract auditors enforce, and
	// records it in snapshots. Without it snapshots carry a negative α
	// and blocking pairs are reported, not flagged — the right default,
	// since the baseline policies promise no stability and the marriage
	// policies are stable only within their random partition.
	Contract bool
	// Assess makes the engine run the agents' strategic assessment after
	// each round, for in-process agents: rematch.Assess over the whole
	// population, unsharded, sharded or streaming, filling the round's
	// Assessment. Remote agents assess the assignments pushed to them,
	// so the wire driver leaves it off.
	Assess bool

	ledger  rematch.Ledger
	ranks   []int32        // Matrix's preference table
	epochs  int            // brackets opened so far: the next epoch's index
	rowOf   map[string]int // catalog job name → matrix row
	catalog []string       // catalog job names, for snapshots

	// jobs backs a Step round's Jobs: Catalog[row of the ledger's agent
	// i], written by every Step the ledger accepts.
	jobs []workload.Job

	// A sharded engine keeps one ring for its lifetime, and the standing
	// round: its last, whose shards the next round carries by position.
	ring     *shard.Ring
	standing *Round
	// Working memory reused round to round: the shard repairs' scratch
	// and RNGs; the neighbourhood's and the assessment's scratch; and an
	// unsharded round's bandwidths and policy scratch.
	repairs  shard.RepairScratch
	scratch  rematch.Scratch
	bw       []float64
	clearing policy.Scratch
}

// New readies an engine from its wiring: it defaults the policy, indexes
// the catalog, ranks the matrix, and — for a streaming market —
// pre-creates the rematch.* counters so exposition snapshots list them at
// zero before the first churn.
func New(e Engine) *Engine {
	if e.Policy == nil {
		e.Policy = policy.StableMarriageRandom{}
	}
	e.ranks = matching.Rank(e.Matrix)
	e.rowOf = make(map[string]int, len(e.Catalog))
	e.catalog = make([]string, len(e.Catalog))
	for i, job := range e.Catalog {
		e.rowOf[job.Name] = i
		e.catalog[i] = job.Name
	}
	if e.Rematch {
		for _, c := range []string{"repairs", "fulls", "joined", "departed"} {
			e.Tel.Counter("rematch." + c)
		}
	}
	if e.Shards > 1 {
		e.ring = shard.NewRing(e.Shards)
	}
	return &e
}

// partition returns the shard of every agent of a sharded round. An
// agent's shard is a function of its job and ID alone, so an agent under
// a stable ID keeps the shard it had in the standing round wherever that
// round held the same ID on the same row: moved maps the standing
// round's positions to r's (a Step's ledger compaction; nil for a Clear,
// which compares position by position). Only the rest are hashed — a
// Step's joiners, a boundary clear's newcomers and whoever a reap moved,
// and an in-process batch population, which has positions for
// identities and new jobs on them every epoch.
func (e *Engine) partition(r *Round, moved []int) []int {
	shardOf, s := make([]int, len(r.Jobs)), e.standing
	for i := range shardOf {
		shardOf[i] = -1
	}
	for i := 0; s != nil && s.IDs != nil && r.IDs != nil && i < len(s.ShardOf) && (moved == nil || i < len(moved)); i++ {
		to := i
		if moved != nil {
			to = moved[i]
		}
		if to >= 0 && to < len(shardOf) && s.IDs[i] == r.IDs[to] && s.JobIdx[i] == r.JobIdx[to] {
			shardOf[to] = s.ShardOf[i]
		}
	}
	for i, sh := range shardOf {
		if sh < 0 {
			shardOf[i] = e.ring.ShardOf(r.Jobs[i], r.ID(i))
		}
	}
	r.ShardOf, e.standing = shardOf, r
	return shardOf
}

// view is the class view of a population whose agents sit on the given
// matrix rows: what the policies, the shards and the assessment read.
func (e *Engine) view(rows []int) matching.Penalties {
	return matching.Penalties{Matrix: e.Matrix, Class: rows, Ranks: e.ranks}
}

// rows maps jobs to their matrix rows.
func (e *Engine) rows(jobs []workload.Job) ([]int, error) {
	rows := make([]int, len(jobs))
	for i := range jobs {
		row, ok := e.rowOf[jobs[i].Name]
		if !ok {
			return nil, fmt.Errorf("market: job %q not in catalog", jobs[i].Name)
		}
		rows[i] = row
	}
	return rows, nil
}

// Roster is a population handed to the engine: agent i runs Jobs[i]
// under the stable identity IDs[i]. IDs nil means agents are their
// indices (in-process batch epochs) or, for joiners, that the ledger
// issues the identities.
type Roster struct {
	IDs  []int
	Jobs []workload.Job
}

// Round is the outcome of one clear or repair: the population it ran
// over and the matching it produced.
type Round struct {
	// IDs, Jobs and JobIdx describe the population: agent i's stable
	// identity (nil means its index), its job, and its Matrix row. A
	// Clear's Jobs is the caller's roster; a Step's is a view of an
	// engine buffer (Jobs[i] is Catalog[JobIdx[i]]), valid until the
	// engine's next Step. The other slices are the round's own.
	IDs    []int
	Jobs   []workload.Job
	JobIdx []int
	// Match is the round's matching over that population.
	Match matching.Matching
	// ShardOf maps agents to shards (nil for the unsharded market), and
	// RefinementRounds / RefinementTrades summarize a sharded full
	// clear's cross-shard refinement pass.
	ShardOf          []int
	RefinementRounds int
	RefinementTrades int
	// Mode is telemetry.KindFull (the market was cleared from scratch) or
	// telemetry.KindRepair (the standing matching was rewired around the
	// churn).
	Mode string
	// Joined and Departed count the churn a Step absorbed. Dirty lists
	// the agents that churn left without an assignment; Neighborhood the
	// agents whose proposals a repair re-ran (nil in full mode) and
	// Changed those that ended with a different partner. All ascending.
	Joined, Departed             int
	Dirty, Neighborhood, Changed []int
	// Assessment is the agents' strategic assessment over the whole
	// population (Assess engines only, in every mode), from
	// rematch.Assess: a verdict per (class, partner class) cell, which
	// each agent's Action and ExpectedGain are read from on demand, and
	// the matching's blocking pairs and break-aways.
	Assessment rematch.Assessment

	index  int // the round's position within its epoch, from 0
	matrix [][]float64
}

// identity returns 0, 1, …, n-1.
func identity(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// ID returns agent i's stable identity.
func (r *Round) ID(i int) int {
	if r.IDs == nil {
		return i
	}
	return r.IDs[i]
}

// Penalty returns agent i's predicted penalty under the round's
// matching (solo agents run alone at zero penalty, the paper's
// convention).
func (r *Round) Penalty(i int) float64 {
	j := r.Match[i]
	if j == matching.Unmatched {
		return 0
	}
	return r.matrix[r.JobIdx[i]][r.JobIdx[j]]
}

// Penalties returns every agent's predicted penalty and their mean, 0
// for an empty round. The sum runs in roster order — the association
// auditors replay bit for bit from the epoch snapshot.
func (r *Round) Penalties() (perAgent []float64, mean float64) {
	perAgent = make([]float64, len(r.Match))
	if len(r.Match) == 0 {
		return perAgent, 0
	}
	for i := range r.Match {
		perAgent[i] = r.Penalty(i)
		mean += perAgent[i]
	}
	return perAgent, mean / float64(len(r.Match))
}

// Touched lists the agents whose assignments the round decided:
// everyone after a full clear; after a repair, the agents whose partner
// changed plus every dirty one — a joiner or displaced survivor the
// repair left solo still needs its assignment (and the auditor its
// explicit agent_unpaired record). Ascending.
func (r *Round) Touched() []int {
	if r.Mode == telemetry.KindFull {
		return identity(len(r.Match))
	}
	touched := append(append([]int(nil), r.Changed...), r.Dirty...)
	slices.Sort(touched)
	return slices.Compact(touched)
}

// Epoch is one scheduling epoch's bracket in the flight log and the
// trace. Its first round opens it — epoch_start plus the snapshot of
// that round's roster — so a round rejected for bad input leaves no
// trace and consumes no epoch index; End or Close closes it.
type Epoch struct {
	// Index is the 0-based epoch number stamped on the epoch's events.
	Index int

	eng    *Engine
	span   *telemetry.Span
	rounds int
	opened bool
	closed bool
	// last is the epoch's previous round while the ledger has not
	// absorbed it: the standing matching a following Step repairs.
	last *Round
}

// Begin starts the engine's next epoch. Drivers must Close it on every
// exit path (defer it: Close after End is a no-op).
func (e *Engine) Begin() *Epoch {
	return &Epoch{Index: e.epochs, eng: e}
}

// Span returns the epoch's span, opening it on first use. It is keyed by
// epoch index, not allocated by a counter, so its ID is a pure function
// of the seed and the epoch number: restarts, replays and batch versus
// streaming runs over one seed agree on it.
func (ep *Epoch) Span() *telemetry.Span {
	if ep.span == nil {
		ep.span = ep.eng.Tel.PhaseKeyed(nil, "epoch", int64(ep.Index))
	}
	return ep.span
}

func (ep *Epoch) record(e telemetry.Event) {
	e.Epoch = ep.Index
	ep.eng.Tel.RecordIn(ep.Span(), e)
}

// open emits the epoch_start event and the epoch_snapshot pinning the
// epoch's inputs, so the log alone suffices to recompute matchings and
// penalties offline (cooper-replay). The roster is the first round's
// population under its stable IDs — the IDs rematch_round payloads name;
// auditors derive later rounds' rosters from the agent_reaped and
// agent_registered events that follow.
func (ep *Epoch) open(r *Round) {
	if ep.opened {
		return
	}
	ep.opened = true
	e := ep.eng
	e.epochs++
	n := len(r.Jobs)
	ep.Span().SetAttr("epoch", ep.Index)
	ep.Span().SetAttr("agents", n)
	ep.record(telemetry.Event{Type: telemetry.EventEpochStart, Agent: -1, Partner: -1, Value: float64(n)})
	if e.Tel.EventRing() == nil {
		return
	}
	agents, jobs := r.IDs, make([]string, n)
	if agents == nil {
		agents = identity(n)
	}
	for i, job := range r.Jobs {
		jobs[i] = job.Name
	}
	// Without a contract α is recorded as negative: blocking pairs are a
	// result the run counts (Figure 10), not a promise of their absence.
	alpha := -1.0
	if e.Contract {
		alpha = e.Alpha
	}
	// Only a sharded market (> 1) is worth recording; old logs carry zero.
	shards := 0
	if e.Shards > 1 {
		shards = e.Shards
	}
	ep.record(telemetry.EpochSnapshot{
		Epoch: ep.Index, Source: e.Source, Policy: e.Policy.Name(), Seed: e.Seed,
		Alpha: alpha, Shards: shards, Kernel: e.Kernel,
		Agents: agents, Jobs: jobs, Catalog: e.catalog, Matrix: e.Matrix,
	}.Event())
}

// newRound starts the epoch's next round over a population.
func (ep *Epoch) newRound(ids []int, jobs []workload.Job, rows []int, mode string) *Round {
	r := &Round{index: ep.rounds, IDs: ids, Jobs: jobs, JobIdx: rows, Mode: mode, matrix: ep.eng.Matrix}
	ep.rounds++
	return r
}

// Clear re-matches the roster from scratch. A Clear after the epoch's
// first round is a degraded re-match of the survivors, announced by a
// legacy (kindless) rematch_round: the superseded round had assignments
// pushed to its whole population, and auditors check it as such. An
// empty roster — every participant died — yields an empty round rather
// than an error, so the epoch can complete trivially.
func (ep *Epoch) Clear(ctx context.Context, roster Roster) (*Round, error) {
	e := ep.eng
	rows, err := e.rows(roster.Jobs)
	if err != nil {
		return nil, err
	}
	if roster.IDs != nil && len(roster.IDs) != len(rows) {
		return nil, fmt.Errorf("market: %d ids for %d agents", len(roster.IDs), len(rows))
	}
	r := ep.newRound(roster.IDs, roster.Jobs, rows, telemetry.KindFull)
	ep.open(r)
	if r.index > 0 {
		ep.record(telemetry.Event{Type: telemetry.EventRematchRound, Agent: -1, Partner: -1,
			Round: r.index, Value: float64(len(rows))})
	}
	ep.last = r
	if len(rows) == 0 {
		return r, nil
	}
	if err := ep.match(ctx, r, nil, nil); err != nil {
		return nil, err
	}
	if e.Assess {
		// The agents assess against the whole population, sharded or
		// not: what their message exchange (§IV-B) would tell them.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r.Assessment = rematch.Assess(e.view(rows), r.Match, e.Alpha, &e.scratch)
	}
	return r, nil
}

// Step absorbs one delta of churn into the standing matching: depart
// leaves, join arrives, and the matching is repaired incrementally
// around them — or re-matched from scratch when cumulative churn since
// the last full clear exceeds ChurnThreshold × the population that clear
// matched (always, on a cold ledger). The standing matching is the
// epoch's previous round when it has one (a wire epoch's boundary clear
// and the rounds after it), otherwise whatever the last Step of an
// earlier epoch left. Unknown or duplicate departures, reused join IDs
// and off-catalog jobs are rejected before anything is recorded, with
// the ledger unchanged.
func (ep *Epoch) Step(ctx context.Context, join Roster, depart []int) (*Round, error) {
	e := ep.eng
	joinRows, err := e.rows(join.Jobs)
	if err != nil {
		return nil, err
	}
	if ep.last != nil {
		// Reseed the ledger from the previous round: a fresh full clear,
		// so the churn budget restarts from its population.
		e.ledger = rematch.Ledger{}
		if _, err := e.ledger.ApplyIDs(ep.last.IDs, ep.last.JobIdx, nil); err != nil {
			return nil, err
		}
		if err := e.ledger.Commit(ep.last.Match, true); err != nil {
			return nil, err
		}
		ep.last = nil
	}
	delta, err := e.ledger.ApplyIDs(join.IDs, joinRows, depart)
	if err != nil {
		return nil, err
	}
	n := len(delta.Agents)
	if n == 0 {
		return nil, fmt.Errorf("market: empty population after churn")
	}
	ids, rows := make([]int, n), make([]int, n)
	e.jobs = slices.Grow(e.jobs[:0], n)[:n]
	for i, a := range delta.Agents {
		ids[i], rows[i], e.jobs[i] = a.ID, a.Job, e.Catalog[a.Job]
	}
	r := ep.newRound(ids, e.jobs, rows, telemetry.KindRepair)
	r.Joined, r.Departed, r.Dirty = len(delta.Joined), len(delta.Departed), delta.Dirty
	announce := func() {
		if e.Tel.EventRing() == nil {
			return
		}
		stable := func(agents []int) []int {
			out := make([]int, len(agents))
			for k, i := range agents {
				out[k] = ids[i]
			}
			return out
		}
		data, _ := json.Marshal(telemetry.RematchChurn{Joined: stable(delta.Joined), Departed: delta.Departed,
			Neighborhood: stable(r.Neighborhood)})
		// Value is the post-churn population, so auditors can cross-check
		// it against the roster derived from lifecycle events.
		ep.record(telemetry.Event{Type: telemetry.EventRematchRound, Agent: -1, Partner: -1,
			Kind: r.Mode, Round: r.index, Value: float64(n), Data: string(data)})
	}
	ep.open(r)
	full := e.ledger.FullDue(e.ChurnThreshold)
	if full {
		// The rematch_round goes out before the market clears, so its
		// shard_matched events land in the fresh audit segment.
		r.Mode = telemetry.KindFull
		announce()
		err = ep.match(ctx, r, nil, e.ledger.Moved())
	} else {
		err = ep.match(ctx, r, delta.Prev, e.ledger.Moved())
	}
	if err != nil {
		return nil, err
	}
	if err := e.ledger.Commit(r.Match, full); err != nil {
		return nil, err
	}
	if full {
		e.Tel.Counter("rematch.fulls").Inc()
	} else {
		announce()
		e.Tel.Counter("rematch.repairs").Inc()
	}
	e.Tel.Counter("rematch.joined").Add(int64(r.Joined))
	e.Tel.Counter("rematch.departed").Add(int64(r.Departed))
	if e.Assess {
		r.Assessment = rematch.Assess(e.view(rows), r.Match, e.Alpha, &e.scratch)
	}
	return r, nil
}

// match runs one round's matching inside its "match" span — keyed by
// round, so an epoch's rounds (and the shard spans under each) keep
// distinct, schedule-independent IDs. prev nil clears the population
// from scratch; otherwise prev is the standing matching and r.Dirty is
// repaired around. moved is partition's: how a Step's ledger moved the
// standing round's agents. It fills r.Match and the round's shard or
// repair details.
func (ep *Epoch) match(ctx context.Context, r *Round, prev matching.Matching, moved []int) error {
	e := ep.eng
	reg := e.Tel.Registry()
	span := e.Tel.PhaseKeyed(ep.Span(), "match", int64(r.index))
	defer e.Tel.End(span)
	proposals, rotations := reg.Counter("match.proposals").Value(), reg.Counter("match.rotations").Value()
	span.SetAttr("policy", e.Policy.Name())
	span.SetAttr("mode", r.Mode)

	if e.Shards > 1 {
		// Sharded market: per-shard clears or repairs in parallel on
		// split-seed streams.
		mk := &shard.Market{
			Shards: e.Shards, Policy: e.Policy, Alpha: e.Alpha, Workers: e.Workers,
			Seed: e.Rand.Int63(), Epoch: ep.Index, IDs: r.IDs, ShardOf: e.partition(r, moved),
			Ranks: e.ranks, Tel: e.Tel, Span: span, Repairs: &e.repairs, SkipRecommendations: true,
		}
		if prev == nil {
			res, err := mk.Clear(ctx, r.Jobs, r.JobIdx, e.Matrix)
			if err != nil {
				return err
			}
			r.Match, r.ShardOf = res.Match, res.ShardOf
			r.RefinementRounds, r.RefinementTrades = res.RefinementRounds, res.RefinementTrades
			span.SetAttr("shards", e.Shards)
			span.SetAttr("refinement_rounds", res.RefinementRounds)
			span.SetAttr("refinement_trades", res.RefinementTrades)
		} else {
			res, err := mk.Repair(ctx, r.Jobs, r.JobIdx, e.Matrix, prev, r.Dirty, rematch.DefaultTopK)
			if err != nil {
				return err
			}
			r.Match, r.ShardOf = res.Match, res.ShardOf
			r.Neighborhood, r.Changed = res.Neighborhood, res.Changed
		}
	} else {
		e.bw = slices.Grow(e.bw[:0], len(r.Jobs))[:len(r.Jobs)]
		for i := range r.Jobs {
			e.bw[i] = r.Jobs[i].BandwidthGBps
		}
		var err error
		if prev == nil {
			r.Match, err = e.Policy.AssignClasses(e.view(r.JobIdx),
				policy.Context{BandwidthGBps: e.bw, Rand: e.Rand, Metrics: reg, Scratch: &e.clearing})
		} else {
			p := e.view(r.JobIdx)
			r.Neighborhood = rematch.Neighborhood(r.Dirty, nil, prev, p, rematch.DefaultTopK, &e.scratch)
			r.Match, r.Changed, err = rematch.Rewire(r.Neighborhood, prev, p, e.bw, e.Policy, e.Rand, reg)
		}
		if err != nil {
			return err
		}
	}
	span.SetAttr("proposals", reg.Counter("match.proposals").Value()-proposals)
	span.SetAttr("rotations", reg.Counter("match.rotations").Value()-rotations)
	if prev != nil {
		span.SetAttr("neighborhood", len(r.Neighborhood))
		span.SetAttr("changed", len(r.Changed))
	}
	return nil
}

// Assigned records agent i's assignment under round r in the flight
// log: one pair_matched per colocation, from its lower index, carrying
// the predicted penalty next to the realized one when the driver has
// measured it (the per-pair accuracy residual the paper's Figure 5
// aggregates); or an explicit agent_unpaired for a solo agent (odd
// population, Threshold policy) — the auditor's coverage invariant needs
// to tell "deliberately unpaired" apart from "forgotten".
func (ep *Epoch) Assigned(r *Round, i int, realized float64) {
	switch j := r.Match[i]; {
	case j == matching.Unmatched:
		ep.record(telemetry.Event{Type: telemetry.EventAgentUnpaired,
			Agent: r.ID(i), Partner: -1, Job: r.Jobs[i].Name})
	case i < j:
		ep.record(telemetry.Event{Type: telemetry.EventPairMatched,
			Agent: r.ID(i), Partner: r.ID(j), Job: r.Jobs[i].Name,
			Predicted: r.Penalty(i), True: realized})
	}
}

// Summary is what a driver reports at the end of a completed epoch.
type Summary struct {
	// Penalties are the per-agent penalties the epoch.penalty histogram
	// observes: realized (oracle) ones in process, predicted ones on the
	// wire. Empty when every participant died.
	Penalties []float64
	// MeanPenalty is their mean — the epoch_end Value dashboards chart.
	MeanPenalty float64
	// MeanPredicted is the matrix-derived mean an offline auditor can
	// recompute from the epoch snapshot alone, bit for bit; drivers
	// whose MeanPenalty already is that mean leave it zero.
	MeanPredicted float64
	// BreakAways counts the agents that recommended breaking away.
	BreakAways int
}

// End closes a completed epoch: the span finishes, the epoch.* metrics
// account it, and epoch_end closes the flight-log bracket.
func (ep *Epoch) End(s Summary) {
	if ep.closed {
		return
	}
	ep.closed = true
	tel := ep.eng.Tel
	tel.End(ep.Span())
	if n := len(s.Penalties); n > 0 {
		tel.Counter("epoch.count").Inc()
		tel.Counter("epoch.agents").Add(int64(n))
		tel.Counter("epoch.breakaways").Add(int64(s.BreakAways))
		tel.Gauge("epoch.mean_penalty").Set(s.MeanPenalty)
		h := tel.Histogram("epoch.penalty", telemetry.PenaltyBuckets())
		for _, p := range s.Penalties {
			h.Observe(p)
		}
	}
	ep.record(telemetry.Event{Type: telemetry.EventEpochEnd, Agent: -1, Partner: -1,
		Value: s.MeanPenalty, Predicted: s.MeanPredicted})
}

// Close closes the bracket of an epoch that did not reach End — an
// error or a cancellation after its first round opened it — so the span
// is finished and the next epoch_start finds the log bracketed: the
// epoch_end it records is marked aborted, which auditors accept without
// checking the unfinished round. After End, or on an epoch no round ever
// opened, it records nothing.
func (ep *Epoch) Close() {
	if ep.closed {
		return
	}
	ep.closed = true
	ep.eng.Tel.End(ep.span)
	if ep.opened {
		ep.record(telemetry.Event{Type: telemetry.EventEpochEnd, Agent: -1, Partner: -1, Kind: telemetry.KindAborted})
	}
}
