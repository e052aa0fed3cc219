// Package audit checks Cooper's epoch invariants against the flight
// recorder's typed event stream. The paper's central claim is
// game-theoretic (stability measured as blocking pairs vs α, Figure 10),
// and the epoch loop is exactly the code the roadmap's next refactors
// rewrite — so the event log doubles as a correctness oracle: every
// epoch_snapshot pins the inputs (roster, penalty matrix, seed, policy),
// and the Auditor replays the matching arithmetic from the log alone.
//
// Invariants, in the order a violation names them:
//
//   - stability: when a snapshot (or the caller) declares a contract
//     α >= 0, the final matching of every round admits no blocking pair
//     in which both agents gain strictly more than α (listed pairwise by
//     matching.Penalties.BlockingPairs on the snapshot's penalty matrix,
//     independently of the market's code). Without a contract the α=0
//     count is informational; it comes from class counts
//     (rematch.Assess) in O(n + C·k) for C classes and the k ≤ C²+C
//     occupied (class, partner class) cells, plus a sort of each present
//     class's penalty row.
//   - conservation: each pair_matched Predicted penalty equals the
//     snapshot matrix entry for the pair's jobs bit for bit, and the
//     per-agent penalties, summed in roster order, reproduce the
//     epoch_end mean exactly (epoch_end.Value for wire logs,
//     epoch_end.Predicted for in-process logs).
//   - coverage: every agent in the round's population is matched or
//     explicitly unpaired, exactly once.
//   - lifecycle: agents follow registered → matched* → reaped; no
//     double registrations, no reaping unknown agents, no roster
//     mutations mid-epoch, and the derived roster agrees with every
//     snapshot's.
//   - bracket: epoch_start/epoch_end alternate with matching epoch
//     indices, and per-epoch events land inside their epoch.
//   - snapshot: epoch_snapshot payloads parse, are structurally sound,
//     and reproduce their own digests.
//   - shard: when a round clears sharded, its shard_matched events
//     partition the population — every agent in exactly one shard, no
//     shard naming agents outside the round, and a snapshot that
//     declares shards is backed by shard events.
//   - refinement: refinement_round trade lists parse, match the
//     event's declared count, pair distinct agents across shard
//     boundaries, and stay disjoint within a round.
//   - repair: a streaming rematch_round's churn payload parses and
//     names agents where they belong, and when the repair round closes,
//     its matching differs from the standing one it repaired only
//     inside the declared neighborhood, by declared joins and by
//     declared departures. The standing matching is the superseded
//     round on the wire and the previous streaming epoch in process.
//
// There is one entry point, Feed, for both modes. Offline (Replay,
// cooper-replay) it consumes a complete JSONL stream; live (cooperd
// -audit) it hangs off EventRing.AddObserver. Either way it tracks Seq
// continuity: a gap degrades to a warning (ring overflow and truncated
// logs are facts of life, not bugs) and the roster resynchronizes at the
// next epoch_snapshot, which is what makes a /debug/events tail
// auditable. Live, the flight recorder has one writer, so the observed
// sequence is gap-free and a gap warning means a second writer appeared.
package audit

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"sync"

	"cooper/internal/matching"
	"cooper/internal/rematch"
	"cooper/internal/telemetry"
)

// Invariant names, as Violation.Invariant carries them and the
// audit.violations.<name> counters count them.
const (
	InvStability    = "stability"
	InvConservation = "conservation"
	InvCoverage     = "coverage"
	InvLifecycle    = "lifecycle"
	InvBracket      = "bracket"
	InvSnapshot     = "snapshot"
	InvShard        = "shard"
	InvRefinement   = "refinement"
	InvRepair       = "repair"
)

// Violation is one invariant failure, pinned to the event evidence that
// proves it.
type Violation struct {
	// Invariant is one of the Inv* names.
	Invariant string
	// Epoch is the scheduling epoch the violation belongs to (-1 when
	// not tied to one).
	Epoch int
	// SeqStart and SeqEnd bound the evidence: for a single-event
	// violation they are equal; for a whole-round check (coverage,
	// conservation, stability) they span epoch_start to the closing
	// event.
	SeqStart, SeqEnd int64
	// Detail is the human-readable specifics.
	Detail string
}

func (v Violation) String() string {
	seq := fmt.Sprintf("seq %d", v.SeqStart)
	if v.SeqEnd != v.SeqStart {
		seq = fmt.Sprintf("seq %d..%d", v.SeqStart, v.SeqEnd)
	}
	return fmt.Sprintf("%s: epoch %d %s: %s", v.Invariant, v.Epoch, seq, v.Detail)
}

// Event converts the violation into its flight-recorder form, so a live
// auditor's findings land in the same stream it audits. Recorded back
// into that stream, it reaches Feed like any other event: it keeps the
// Seq sequence gap-free and, being outside the epoch state machine,
// cannot trigger a violation of its own.
func (v Violation) Event() telemetry.Event {
	return telemetry.Event{
		Type: telemetry.EventInvariantViolated, Epoch: v.Epoch,
		Agent: -1, Partner: -1, Kind: v.Invariant,
		Value: float64(v.SeqStart), Data: v.Detail,
	}
}

// Report is the outcome of an audit pass.
type Report struct {
	// Events is how many events the auditor consumed, Epochs how many
	// completed epochs it saw, Pairs how many pair_matched records.
	Events int
	Epochs int
	Pairs  int
	// BlockingPairs counts the blocking pairs observed at α = 0 across
	// all audited rounds — informational (Figure 10's measurement), a
	// violation only under a declared contract.
	BlockingPairs int
	// Violations are the invariant failures, in stream order.
	Violations []Violation
	// Warnings note conditions that degrade the audit without failing
	// it: Seq gaps (ring overflow, truncated logs), epochs without
	// snapshots, a log ending mid-epoch.
	Warnings []string
}

// OK reports whether the pass found no violations.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// Options configures an Auditor.
type Options struct {
	// Alpha, when ForceAlpha is set, imposes a stability contract on
	// every audited round regardless of what the snapshots declare
	// (cooper-replay -alpha). Without ForceAlpha the contract comes
	// from each snapshot's Alpha field, negative meaning none.
	Alpha      float64
	ForceAlpha bool
	// OnViolation, when non-nil, is invoked with each violation found
	// while feeding an event, in order, after Feed has released the
	// auditor's lock — so the live path may record each one back into
	// the audited ring (and so into Feed) as an invariant_violated
	// event, beside its audit.violations counters.
	OnViolation func(Violation)
}

// rosterEntry is one agent in session order.
type rosterEntry struct {
	id  int
	job string
}

// pairRec is one recorded colocation within a round.
type pairRec struct {
	a, b int // wire IDs (or core indices), a = emitting side
	pred float64
	seq  int64
}

// segment is one assignment round's worth of state: the population the
// assignments were pushed to, and what was pushed. A degraded epoch has
// several segments, delimited by rematch_round events; only the last
// one carries the epoch's accounting.
type segment struct {
	roster   []rosterEntry
	pairs    []pairRec
	partner  map[int]int  // both directions
	unpaired map[int]bool // explicit solos
	// shardOf maps agent id -> shard, built from shard_matched events;
	// shardEvents counts them, so zero distinguishes "unsharded round"
	// from "sharded round with empty shards".
	shardOf     map[int]int
	shardEvents int
	trusted     bool // roster believed authoritative
	// kind is the opening rematch_round's Kind, "" for a round no
	// streaming rematch opened.
	kind string
	// churn and nbhd are a repair round's declared payload; standing is
	// the matching it repairs, by agent ID (nil: none to hold it to).
	churn    telemetry.RematchChurn
	nbhd     map[int]bool
	standing map[int]int
	// assigned tracks the round's assignment events in carried (wire
	// repair) mode, where partner/unpaired carry over from the superseded
	// round and only neighborhood agents may be re-assigned. assigned
	// non-nil IS the carried-mode flag.
	assigned map[int]bool
}

// Auditor is the invariant engine. It is a state machine over the event
// stream; feed it events in order via Feed, then Finish. Safe for
// concurrent use.
type Auditor struct {
	mu   sync.Mutex
	opts Options
	rep  Report
	// found queues the violations of the event being fed, for Feed to
	// hand to OnViolation once it has released mu.
	found []Violation

	started bool
	lastSeq int64
	// synced marks the derived roster authoritative: the stream was
	// consumed gap-free from Seq 0, or a snapshot resynchronized it.
	synced bool

	roster []rosterEntry // wire session order, across epochs

	inEpoch       bool
	curEpoch      int
	lastEpoch     int
	haveLastEpoch bool
	epochStartSeq int64
	source        string // last snapshot's Source, "" before any

	snap   *telemetry.EpochSnapshot // current epoch's, nil if none yet
	jobIdx map[string]int           // catalog name -> matrix index

	seg segment

	// pendingMid tracks wire agents whose agent_registered landed
	// mid-epoch: legal only when a rematch round admits them before the
	// epoch ends.
	pendingMid map[int]bool
	// prevFinal is the previous in-process streaming epoch's final
	// matching by agent ID: the standing matching a repair epoch is held
	// to (nil after a classic, aborted or unchecked epoch).
	prevFinal map[int]int
}

// New returns an Auditor ready to consume a stream from its beginning.
func New(opts Options) *Auditor {
	return &Auditor{opts: opts, lastEpoch: -1}
}

// Feed consumes the next event of the stream, tracking Seq continuity:
// a gap (or a stream starting past Seq 0) is warned about and
// desynchronizes the derived roster until the next snapshot. Violations
// the event reveals go to OnViolation after the lock is released.
func (a *Auditor) Feed(e telemetry.Event) {
	a.mu.Lock()
	if !a.started {
		a.started = true
		if e.Seq == 0 {
			a.synced = true
		} else {
			a.warnf("stream starts at seq %d, not 0 (ring tail?); roster resynchronizes at the next epoch_snapshot", e.Seq)
		}
	} else if e.Seq != a.lastSeq+1 {
		a.warnf("seq gap %d -> %d (events.dropped overflow or truncated log); roster resynchronizes at the next epoch_snapshot", a.lastSeq, e.Seq)
		a.synced = false
		a.seg.trusted = false
	}
	a.lastSeq = e.Seq
	a.feed(e)
	found := a.found
	a.found = nil
	a.mu.Unlock()
	for _, v := range found {
		a.opts.OnViolation(v)
	}
}

// Finish returns a copy of the report, flagging a stream that ends
// mid-epoch in that copy only. The auditor remains usable (a live
// dashboard can snapshot periodically), and each call reports the
// stream as it stands.
func (a *Auditor) Finish() *Report {
	a.mu.Lock()
	defer a.mu.Unlock()
	rep := a.rep
	rep.Violations = append([]Violation(nil), a.rep.Violations...)
	rep.Warnings = append([]string(nil), a.rep.Warnings...)
	if a.inEpoch {
		rep.Warnings = append(rep.Warnings, fmt.Sprintf(
			"stream ends inside epoch %d (truncated log or live tail); its checks were skipped", a.curEpoch))
	}
	return &rep
}

// Replay audits a complete event stream in one call.
func Replay(events []telemetry.Event, opts Options) *Report {
	a := New(opts)
	for _, e := range events {
		a.Feed(e)
	}
	return a.Finish()
}

func (a *Auditor) warnf(format string, args ...any) {
	a.rep.Warnings = append(a.rep.Warnings, fmt.Sprintf(format, args...))
}

func (a *Auditor) violate(inv string, epoch int, seqStart, seqEnd int64, format string, args ...any) {
	v := Violation{Invariant: inv, Epoch: epoch,
		SeqStart: seqStart, SeqEnd: seqEnd, Detail: fmt.Sprintf(format, args...)}
	a.rep.Violations = append(a.rep.Violations, v)
	if a.opts.OnViolation != nil {
		a.found = append(a.found, v)
	}
}

func (a *Auditor) rosterIndex(id int) int {
	for i, r := range a.roster {
		if r.id == id {
			return i
		}
	}
	return -1
}

// feed dispatches one event. Caller holds a.mu.
func (a *Auditor) feed(e telemetry.Event) {
	a.rep.Events++
	switch e.Type {
	case telemetry.EventAgentRegistered:
		a.onRegistered(e)
	case telemetry.EventAgentReaped:
		a.onReaped(e)
	case telemetry.EventEpochStart:
		a.onEpochStart(e)
	case telemetry.EventEpochSnapshot:
		a.onSnapshot(e)
	case telemetry.EventRematchRound:
		a.onRematch(e)
	case telemetry.EventShardMatched:
		a.onShardMatched(e)
	case telemetry.EventRefinementRound:
		a.onRefinement(e)
	case telemetry.EventPairMatched:
		a.onPair(e)
	case telemetry.EventAgentUnpaired:
		a.onUnpaired(e)
	case telemetry.EventEpochEnd:
		a.onEpochEnd(e)
	}
	// Everything else (cache_hit_rate, batch_scheduled, the auditor's own
	// invariant_violated records) is outside the epoch state machine.
}

func (a *Auditor) onRegistered(e telemetry.Event) {
	if a.rosterIndex(e.Agent) >= 0 {
		a.violate(InvLifecycle, e.Epoch, e.Seq, e.Seq,
			"agent %d registered twice without an intervening reap", e.Agent)
		return
	}
	if a.inEpoch {
		// A mid-epoch registration is a live admission: legal only if a
		// rematch round claims the agent before the epoch ends
		// (onEpochEnd flags leftovers).
		if a.pendingMid == nil {
			a.pendingMid = make(map[int]bool)
		}
		a.pendingMid[e.Agent] = true
	}
	a.roster = append(a.roster, rosterEntry{id: e.Agent, job: e.Job})
}

func (a *Auditor) onReaped(e telemetry.Event) {
	i := a.rosterIndex(e.Agent)
	if i < 0 {
		if a.synced {
			a.violate(InvLifecycle, e.Epoch, e.Seq, e.Seq,
				"agent %d reaped but never registered", e.Agent)
		}
		return
	}
	// Reaps land inside epochs only (write/read failures and
	// post-summary cleanup). They shrink the roster for the *next*
	// round; the current segment's population — assignments were
	// already pushed — stays as captured.
	if !a.inEpoch && a.synced {
		a.violate(InvLifecycle, e.Epoch, e.Seq, e.Seq,
			"agent %d reaped outside any epoch", e.Agent)
	}
	a.roster = append(a.roster[:i], a.roster[i+1:]...)
}

func (a *Auditor) onEpochStart(e telemetry.Event) {
	if a.inEpoch {
		a.violate(InvBracket, e.Epoch, e.Seq, e.Seq,
			"epoch %d starts while epoch %d is still open", e.Epoch, a.curEpoch)
	}
	if a.haveLastEpoch && a.synced && e.Epoch != a.lastEpoch+1 {
		a.violate(InvBracket, e.Epoch, e.Seq, e.Seq,
			"epoch index %d follows completed epoch %d", e.Epoch, a.lastEpoch)
	}
	if a.synced && a.source == telemetry.SnapshotSourceWire &&
		int(e.Value) != len(a.roster) {
		a.violate(InvLifecycle, e.Epoch, e.Seq, e.Seq,
			"epoch_start population %d but derived roster has %d agents",
			int(e.Value), len(a.roster))
	}
	a.inEpoch = true
	a.curEpoch = e.Epoch
	a.epochStartSeq = e.Seq
	a.snap = nil
	a.jobIdx = nil
	a.resetSegment()
}

// resetSegment captures the current roster as a fresh round's
// population.
func (a *Auditor) resetSegment() {
	a.seg = segment{
		roster:   append([]rosterEntry(nil), a.roster...),
		partner:  make(map[int]int),
		unpaired: make(map[int]bool),
		shardOf:  make(map[int]int),
		trusted:  a.synced,
	}
}

func (a *Auditor) onSnapshot(e telemetry.Event) {
	snap, err := e.SnapshotPayload()
	if err != nil {
		a.violate(InvSnapshot, e.Epoch, e.Seq, e.Seq, "unparseable payload: %v", err)
		return
	}
	if !a.inEpoch || snap.Epoch != a.curEpoch {
		a.violate(InvBracket, e.Epoch, e.Seq, e.Seq,
			"epoch_snapshot for epoch %d outside its epoch", snap.Epoch)
	}
	bad := false
	if len(snap.Agents) != len(snap.Jobs) {
		a.violate(InvSnapshot, e.Epoch, e.Seq, e.Seq,
			"%d agents but %d jobs", len(snap.Agents), len(snap.Jobs))
		bad = true
	}
	if len(snap.Matrix) != len(snap.Catalog) {
		a.violate(InvSnapshot, e.Epoch, e.Seq, e.Seq,
			"matrix has %d rows for %d catalog jobs", len(snap.Matrix), len(snap.Catalog))
		bad = true
	}
	for i, row := range snap.Matrix {
		if len(row) != len(snap.Catalog) {
			a.violate(InvSnapshot, e.Epoch, e.Seq, e.Seq,
				"matrix row %d has %d entries for %d catalog jobs", i, len(row), len(snap.Catalog))
			bad = true
			break
		}
	}
	jobIdx := make(map[string]int, len(snap.Catalog))
	for i, name := range snap.Catalog {
		jobIdx[name] = i
	}
	for i, job := range snap.Jobs {
		if _, ok := jobIdx[job]; !ok {
			a.violate(InvSnapshot, e.Epoch, e.Seq, e.Seq,
				"roster entry %d runs job %q, which is not in the catalog", i, job)
			bad = true
			break
		}
	}
	if got := telemetry.PopulationDigest(snap.Agents, snap.Jobs); got != snap.PopDigest {
		a.violate(InvSnapshot, e.Epoch, e.Seq, e.Seq,
			"population digest %s does not reproduce recorded %s", got, snap.PopDigest)
		bad = true
	}
	if got := telemetry.PenaltyMatrixDigest(snap.Catalog, snap.Matrix); got != snap.MatrixDigest {
		a.violate(InvSnapshot, e.Epoch, e.Seq, e.Seq,
			"matrix digest %s does not reproduce recorded %s", got, snap.MatrixDigest)
		bad = true
	}
	if bad {
		return
	}
	a.source = snap.Source
	snapRoster := make([]rosterEntry, len(snap.Agents))
	for i, id := range snap.Agents {
		snapRoster[i] = rosterEntry{id: id, job: snap.Jobs[i]}
	}
	if snap.Source == telemetry.SnapshotSourceCore {
		// In-process epochs are self-contained: agents are epoch-local
		// indices with no lifecycle events, so the snapshot IS the
		// roster.
		a.roster = snapRoster
	} else if a.synced {
		if !rostersEqual(a.roster, snapRoster) {
			a.violate(InvLifecycle, e.Epoch, e.Seq, e.Seq,
				"snapshot roster %v disagrees with roster %v derived from lifecycle events",
				rosterIDs(snapRoster), rosterIDs(a.roster))
		}
	} else {
		// Mid-stream resync: adopt the snapshot's authoritative roster.
		a.roster = snapRoster
		a.synced = true
	}
	a.snap, a.jobIdx = snap, jobIdx
	a.resetSegment()
}

func rostersEqual(a, b []rosterEntry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func rosterIDs(r []rosterEntry) []int {
	ids := make([]int, len(r))
	for i, e := range r {
		ids[i] = e.id
	}
	return ids
}

func (a *Auditor) onRematch(e telemetry.Event) {
	if !a.inEpoch {
		a.violate(InvBracket, e.Epoch, e.Seq, e.Seq, "rematch_round outside any epoch")
		return
	}
	switch e.Kind {
	case "":
		// Legacy degraded round after reaps. The superseded round still
		// had assignments pushed to its whole population, so it must
		// satisfy coverage and stability; only the accounting (which the
		// epoch summary reports for the final round alone) is skipped.
		a.checkSegment(e, false)
		a.resetSegment()
	case telemetry.KindFull, telemetry.KindRepair:
		a.onStreamRematch(e)
	default:
		a.violate(InvRepair, e.Epoch, e.Seq, e.Seq,
			"rematch_round has unknown kind %q", e.Kind)
		return
	}
	if a.seg.trusted && int(e.Value) != len(a.roster) {
		a.violate(InvLifecycle, e.Epoch, e.Seq, e.Seq,
			"rematch_round population %d but derived roster has %d agents",
			int(e.Value), len(a.roster))
	}
}

// segmentAssigned reports whether the current segment recorded any
// assignment events yet (in-process streaming epochs emit their
// rematch_round before the assignments, so there is no superseded round
// to close).
func (a *Auditor) segmentAssigned() bool {
	return len(a.seg.pairs) > 0 || len(a.seg.partner) > 0 || len(a.seg.unpaired) > 0
}

// onStreamRematch opens a streaming rematch round, Kind "full" or
// "repair", closing the superseded round if it had assignments. On the
// wire the payload's joiners must have been queued mid-epoch, and a
// repair round carries the superseded round's assignments forward; in
// process the snapshot already holds the post-churn roster and every
// agent is assigned afresh. Either way the payload must name agents
// where they belong, and a repair round is held, when it closes, to the
// standing matching: the superseded round's on the wire, the previous
// streaming epoch's in process.
func (a *Auditor) onStreamRematch(e telemetry.Event) {
	var churn telemetry.RematchChurn
	if e.Data == "" {
		a.violate(InvRepair, e.Epoch, e.Seq, e.Seq,
			"rematch_round %s carries no churn payload", e.Kind)
	} else if err := json.Unmarshal([]byte(e.Data), &churn); err != nil {
		a.violate(InvRepair, e.Epoch, e.Seq, e.Seq,
			"rematch_round %s payload unparseable: %v", e.Kind, err)
		churn = telemetry.RematchChurn{}
	}
	prev := a.seg
	var superseded map[int]int
	if a.segmentAssigned() {
		superseded = a.checkSegment(e, false)
	}
	wire := a.source != telemetry.SnapshotSourceCore
	if wire {
		for _, id := range churn.Joined {
			if !a.pendingMid[id] {
				a.violate(InvRepair, e.Epoch, e.Seq, e.Seq,
					"rematch_round admits agent %d, which never registered mid-epoch", id)
			}
			delete(a.pendingMid, id)
		}
	}
	a.resetSegment()
	seg := &a.seg
	seg.kind, seg.churn, seg.nbhd = e.Kind, churn, idSet(churn.Neighborhood)
	if e.Kind == telemetry.KindRepair {
		seg.standing = a.prevFinal
		if wire {
			// The round starts from the superseded round's assignments,
			// less those of the agents it declares departed.
			seg.standing = superseded
			seg.partner, seg.unpaired, seg.shardOf = prev.partner, prev.unpaired, prev.shardOf
			seg.trusted = seg.trusted && prev.trusted
			seg.assigned = make(map[int]bool)
			for _, id := range churn.Departed {
				delete(seg.partner, id)
				delete(seg.unpaired, id)
			}
		}
	}
	if !seg.trusted {
		return
	}
	in := make(map[int]bool, len(seg.roster))
	for _, r := range seg.roster {
		in[r.id] = true
	}
	for _, id := range churn.Neighborhood {
		if !in[id] {
			a.violate(InvRepair, e.Epoch, e.Seq, e.Seq,
				"repair neighborhood names agent %d, not in this round's population", id)
		}
	}
	for _, id := range churn.Joined {
		if !in[id] {
			a.violate(InvRepair, e.Epoch, e.Seq, e.Seq,
				"rematch_round admits agent %d, not in this round's population", id)
		}
		if e.Kind == telemetry.KindRepair && !seg.nbhd[id] {
			a.violate(InvRepair, e.Epoch, e.Seq, e.Seq,
				"joined agent %d outside the repair neighborhood", id)
		}
	}
	for _, id := range churn.Departed {
		if in[id] {
			a.violate(InvRepair, e.Epoch, e.Seq, e.Seq,
				"rematch_round departs agent %d, still in this round's population", id)
		}
	}
}

func idSet(ids []int) map[int]bool {
	set := make(map[int]bool, len(ids))
	for _, id := range ids {
		set[id] = true
	}
	return set
}

// onShardMatched records one shard's membership. The payload is the
// member list (event-log agent IDs, session order); exactly-once
// placement is enforced here, full coverage at segment close.
func (a *Auditor) onShardMatched(e telemetry.Event) {
	if !a.inEpoch {
		a.violate(InvBracket, e.Epoch, e.Seq, e.Seq, "shard_matched outside any epoch")
		return
	}
	a.seg.shardEvents++
	var members []int
	if err := json.Unmarshal([]byte(e.Data), &members); err != nil {
		a.violate(InvShard, e.Epoch, e.Seq, e.Seq,
			"shard %d payload unparseable: %v", e.Round, err)
		return
	}
	if int(e.Value) != len(members) {
		a.violate(InvShard, e.Epoch, e.Seq, e.Seq,
			"shard %d declares %d agents but lists %d", e.Round, int(e.Value), len(members))
	}
	for _, id := range members {
		if s, dup := a.seg.shardOf[id]; dup {
			a.violate(InvShard, e.Epoch, e.Seq, e.Seq,
				"agent %d placed in shard %d after shard %d; shards must partition the population",
				id, e.Round, s)
			continue
		}
		a.seg.shardOf[id] = e.Round
	}
}

// onRefinement checks one cross-shard refinement round: the trade list
// parses, matches the event's declared count, pairs distinct agents
// from different shards, and stays disjoint within the round (the
// market applies trades greedily on non-overlapping agents, which is
// what keeps the event's summed gain exact).
func (a *Auditor) onRefinement(e telemetry.Event) {
	if !a.inEpoch {
		a.violate(InvBracket, e.Epoch, e.Seq, e.Seq, "refinement_round outside any epoch")
		return
	}
	var trades [][2]int
	if err := json.Unmarshal([]byte(e.Data), &trades); err != nil {
		a.violate(InvRefinement, e.Epoch, e.Seq, e.Seq,
			"round %d payload unparseable: %v", e.Round, err)
		return
	}
	if int(e.Value) != len(trades) {
		a.violate(InvRefinement, e.Epoch, e.Seq, e.Seq,
			"round %d declares %d trades but lists %d", e.Round, int(e.Value), len(trades))
	}
	seen := make(map[int]bool, 2*len(trades))
	for _, tr := range trades {
		i, j := tr[0], tr[1]
		if i == j {
			a.violate(InvRefinement, e.Epoch, e.Seq, e.Seq,
				"round %d trades agent %d with itself", e.Round, i)
			continue
		}
		if seen[i] || seen[j] {
			a.violate(InvRefinement, e.Epoch, e.Seq, e.Seq,
				"round %d trades overlap on pair %d+%d; trades within a round must be disjoint",
				e.Round, i, j)
		}
		seen[i], seen[j] = true, true
		si, oki := a.seg.shardOf[i]
		sj, okj := a.seg.shardOf[j]
		if oki && okj && si == sj {
			a.violate(InvRefinement, e.Epoch, e.Seq, e.Seq,
				"round %d trades %d+%d inside shard %d; refinement only crosses shard boundaries",
				e.Round, i, j, si)
		}
		if a.seg.trusted {
			for _, id := range [2]int{i, j} {
				if _, ok := a.seg.shardOf[id]; !ok {
					a.violate(InvRefinement, e.Epoch, e.Seq, e.Seq,
						"round %d trades agent %d, which no shard_matched event placed", e.Round, id)
				}
			}
		}
	}
}

func (a *Auditor) onPair(e telemetry.Event) {
	a.rep.Pairs++
	if !a.inEpoch {
		a.violate(InvBracket, e.Epoch, e.Seq, e.Seq,
			"pair_matched %d+%d outside any epoch", e.Agent, e.Partner)
		return
	}
	if e.Agent == e.Partner {
		a.violate(InvCoverage, e.Epoch, e.Seq, e.Seq, "agent %d matched with itself", e.Agent)
		return
	}
	seg := &a.seg
	for _, id := range [2]int{e.Agent, e.Partner} {
		if seg.assigned != nil {
			a.reassign(e, id, "re-matched")
			continue
		}
		if p, dup := seg.partner[id]; dup {
			a.violate(InvCoverage, e.Epoch, e.Seq, e.Seq,
				"agent %d matched twice in one round (with %d, then %d)", id, p, e.Agent+e.Partner-id)
		}
		if seg.unpaired[id] {
			a.violate(InvCoverage, e.Epoch, e.Seq, e.Seq,
				"agent %d both unpaired and matched in one round", id)
		}
	}
	seg.partner[e.Agent] = e.Partner
	seg.partner[e.Partner] = e.Agent
	seg.pairs = append(seg.pairs, pairRec{a: e.Agent, b: e.Partner, pred: e.Predicted, seq: e.Seq})
}

// reassign records agent id's assignment in a carried (wire repair)
// round, where only neighborhood agents may be re-assigned, once each.
// The agent's carried assignment is dropped; a partner it leaves behind
// is caught when the round closes, by the diff against the standing
// matching.
func (a *Auditor) reassign(e telemetry.Event, id int, verb string) {
	seg := &a.seg
	if seg.assigned[id] {
		a.violate(InvCoverage, e.Epoch, e.Seq, e.Seq,
			"agent %d assigned twice in one repair round", id)
	}
	if !seg.nbhd[id] {
		a.violate(InvRepair, e.Epoch, e.Seq, e.Seq,
			"agent %d %s outside the repair neighborhood", id, verb)
	}
	seg.assigned[id] = true
	delete(seg.partner, id)
	delete(seg.unpaired, id)
}

func (a *Auditor) onUnpaired(e telemetry.Event) {
	if !a.inEpoch {
		a.violate(InvBracket, e.Epoch, e.Seq, e.Seq,
			"agent_unpaired %d outside any epoch", e.Agent)
		return
	}
	if a.seg.assigned != nil {
		a.reassign(e, e.Agent, "re-assigned")
	} else if _, dup := a.seg.partner[e.Agent]; dup || a.seg.unpaired[e.Agent] {
		a.violate(InvCoverage, e.Epoch, e.Seq, e.Seq,
			"agent %d assigned twice in one round", e.Agent)
		return
	}
	a.seg.unpaired[e.Agent] = true
}

func (a *Auditor) onEpochEnd(e telemetry.Event) {
	if !a.inEpoch {
		a.violate(InvBracket, e.Epoch, e.Seq, e.Seq, "epoch_end without epoch_start")
		return
	}
	if e.Epoch != a.curEpoch {
		a.violate(InvBracket, e.Epoch, e.Seq, e.Seq,
			"epoch_end for epoch %d closes epoch %d", e.Epoch, a.curEpoch)
	}
	var final map[int]int
	if e.Kind == telemetry.KindAborted {
		// The epoch errored or was canceled mid-round: its bracket closes,
		// but there is no completed matching to hold to coverage,
		// conservation or stability, and the next streaming epoch has no
		// standing matching to be held to.
		a.warnf("epoch %d aborted: round unchecked (seq %d..%d)", a.curEpoch, a.epochStartSeq, e.Seq)
		a.pendingMid = nil
	} else {
		final = a.checkSegment(e, true)
	}
	if len(a.pendingMid) > 0 {
		a.violate(InvLifecycle, a.curEpoch, a.epochStartSeq, e.Seq,
			"agents %v registered mid-epoch but no rematch round admitted them", sortedIDs(a.pendingMid))
		a.pendingMid = nil
	}
	if a.source == telemetry.SnapshotSourceCore {
		// A classic epoch's index-space agents are not comparable across
		// epochs; a streaming epoch's final matching is the next one's
		// standing matching. Core rosters are epoch-local; the next epoch
		// brings its own.
		if a.seg.kind == "" {
			final = nil
		}
		a.prevFinal, a.roster = final, nil
	}
	a.inEpoch = false
	a.lastEpoch = a.curEpoch
	a.haveLastEpoch = true
	a.rep.Epochs++
}

func sortedIDs(set map[int]bool) []int {
	ids := make([]int, 0, len(set))
	for id := range set {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// alpha resolves the stability contract for the current epoch: the
// forced override, else the snapshot's declaration. Negative means no
// contract.
func (a *Auditor) alpha() float64 {
	if a.opts.ForceAlpha {
		return a.opts.Alpha
	}
	if a.snap != nil {
		return a.snap.Alpha
	}
	return -1
}

// checkSegment runs the per-round invariants against the closing event
// (a rematch_round for superseded rounds, the epoch_end for the final
// one) and returns the round's final matching by agent ID, nil when the
// round went unchecked. Accounting runs only on the final round, which
// is the one the epoch summary reports.
func (a *Auditor) checkSegment(end telemetry.Event, final bool) map[int]int {
	seg := &a.seg
	if !seg.trusted {
		// Either no authoritative roster vouches for this population, or
		// a Seq gap mid-round means assignments may simply be missing
		// from the stream — flagging them as coverage violations would
		// turn ring overflow into false alarms.
		a.warnf("epoch %d round unchecked: no authoritative roster or events lost mid-round (seq %d..%d)",
			a.curEpoch, a.epochStartSeq, end.Seq)
		return nil
	}
	n := len(seg.roster)
	idx := make(map[int]int, n)
	for i, r := range seg.roster {
		idx[r.id] = i
	}

	// Membership: assignments must name population agents.
	for _, p := range seg.pairs {
		for _, id := range [2]int{p.a, p.b} {
			if _, ok := idx[id]; !ok {
				a.violate(InvCoverage, a.curEpoch, p.seq, p.seq,
					"pair_matched names agent %d, not in this round's population", id)
			}
		}
	}
	for _, id := range sortedIDs(seg.unpaired) {
		if _, ok := idx[id]; !ok {
			a.violate(InvCoverage, a.curEpoch, a.epochStartSeq, end.Seq,
				"agent_unpaired names agent %d, not in this round's population", id)
		}
	}

	// The round's matching is its mutually consistent partner links
	// inside the population: in a plain round exactly the pair events, in
	// a carried repair round the superseded round's matching with the
	// repair's assignments applied.
	match := make(matching.Matching, n)
	byID := make(map[int]int, n)
	for i, r := range seg.roster {
		match[i], byID[r.id] = matching.Unmatched, matching.Unmatched
		pid, ok := seg.partner[r.id]
		if !ok {
			continue
		}
		j, okj := idx[pid]
		if !okj {
			if seg.kind == telemetry.KindRepair {
				a.violate(InvRepair, a.curEpoch, a.epochStartSeq, end.Seq,
					"agent %d still paired with %d, which left the population unrepaired", r.id, pid)
			}
			continue
		}
		if q, okq := seg.partner[pid]; okq && q == r.id {
			match[i], byID[r.id] = j, pid
		}
	}
	// Coverage: every population agent matched or explicitly unpaired
	// (double assignment was already flagged at record time).
	var missing []int
	for i, r := range seg.roster {
		if match[i] == matching.Unmatched && !seg.unpaired[r.id] {
			missing = append(missing, r.id)
		}
	}
	if len(missing) > 0 {
		a.violate(InvCoverage, a.curEpoch, a.epochStartSeq, end.Seq,
			"agents %v neither matched nor explicitly unpaired this round", missing)
	}
	if seg.standing != nil {
		a.checkRepair(byID, end)
	}

	// Shard coverage: a sharded round's shard_matched events partition
	// the population — every agent in exactly one shard (the exactly-once
	// half was enforced at record time), no shard naming outsiders. A
	// snapshot that declares shards with no shard events to back it is
	// itself a violation (the market was supposed to run sharded).
	if seg.shardEvents > 0 {
		var unsharded []int
		for _, r := range seg.roster {
			if _, ok := seg.shardOf[r.id]; !ok {
				unsharded = append(unsharded, r.id)
			}
		}
		if len(unsharded) > 0 {
			a.violate(InvShard, a.curEpoch, a.epochStartSeq, end.Seq,
				"agents %v in no shard this round", unsharded)
		}
		outsiders := make([]int, 0, len(seg.shardOf))
		for id := range seg.shardOf {
			if _, ok := idx[id]; !ok {
				outsiders = append(outsiders, id)
			}
		}
		if len(outsiders) > 0 {
			sort.Ints(outsiders)
			a.violate(InvShard, a.curEpoch, a.epochStartSeq, end.Seq,
				"shard_matched names agents %v, not in this round's population", outsiders)
		}
	} else if a.snap != nil && a.snap.Shards > 1 && seg.kind != telemetry.KindRepair {
		// Repair rounds re-push only the neighborhood and emit no
		// shard_matched events, so the partition checks don't apply.
		a.violate(InvShard, a.curEpoch, a.epochStartSeq, end.Seq,
			"snapshot declares %d shards but the round recorded no shard_matched events", a.snap.Shards)
	}

	if a.snap == nil {
		if final {
			a.warnf("epoch %d has no epoch_snapshot (older log format?): penalty checks skipped", a.curEpoch)
		}
		return byID
	}

	// Read penalties as the market does: an agent's class is its job's
	// row in the snapshot's job-level matrix, and the penalty of a pair
	// is an exact lookup. An agent whose job the catalog lacks (a roster
	// derived from lifecycle events that the snapshot disagreed with)
	// leaves the round's penalties unrecomputable.
	d := matching.Penalties{Matrix: a.snap.Matrix, Class: make([]int, n)}
	complete := true
	for i, r := range seg.roster {
		row, ok := a.jobIdx[r.job]
		if !ok {
			a.violate(InvSnapshot, a.curEpoch, a.epochStartSeq, end.Seq,
				"agent %d runs job %q, missing from the snapshot catalog", r.id, r.job)
			row, complete = -1, false
		}
		d.Class[i] = row
	}
	for _, p := range seg.pairs {
		i, oki := idx[p.a]
		j, okj := idx[p.b]
		if !oki || !okj || d.Class[i] < 0 || d.Class[j] < 0 {
			continue // already flagged above
		}
		if want := d.At(i, j); math.Float64bits(p.pred) != math.Float64bits(want) {
			a.violate(InvConservation, a.curEpoch, p.seq, p.seq,
				"pair %d+%d predicted penalty %v, but the snapshot matrix says %v",
				p.a, p.b, p.pred, want)
		}
	}
	if !complete {
		return byID
	}

	// Conservation: replay the epoch accounting — the sum runs in
	// roster (session) order, exactly as the coordinator's loop does,
	// so the float association matches and equality is bit-for-bit.
	if final && n > 0 {
		var sum float64
		for i := range seg.roster {
			if match[i] != matching.Unmatched {
				sum += d.At(i, match[i])
			}
		}
		want := sum / float64(n)
		got := end.Value
		if a.snap.Source == telemetry.SnapshotSourceCore {
			// In-process epochs report the oracle mean in Value (not
			// recomputable from the log) and the matrix-derived mean in
			// Predicted.
			got = end.Predicted
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			a.violate(InvConservation, a.curEpoch, a.epochStartSeq, end.Seq,
				"epoch reports mean penalty %v, but the pair penalties sum to %v", got, want)
		}
	}

	// Stability: penalties depend only on (class, partner class), so the
	// blocking pairs at α = 0 — informational, Figure 10's measurement —
	// are counted from class counts by the market's own assessment, in
	// O(n + C·k) for the k occupied (class, partner class) cells, after
	// one sort of each present class's row (a snapshot carries no ranked
	// table). Under a declared contract every blocking pair is a
	// violation, listed by the pairwise scan.
	if n > 1 {
		a.rep.BlockingPairs += rematch.Assess(d, match, 0, nil).BlockingPairs
		if alpha := a.alpha(); alpha >= 0 {
			for _, bp := range d.BlockingPairs(match, alpha) {
				i, j := bp[0], bp[1]
				a.violate(InvStability, a.curEpoch, a.epochStartSeq, end.Seq,
					"agents %d and %d block the matching: both gain more than α=%v by defecting (%v and %v)",
					seg.roster[i].id, seg.roster[j].id, alpha,
					soloPen(d, match, i)-d.At(i, j), soloPen(d, match, j)-d.At(j, i))
			}
		}
	}
	return byID
}

// checkRepair holds a closing repair round to its declared churn: against
// the standing matching it repaired, only neighborhood agents may change
// partner, only declared joiners may appear, and only declared
// departures may vanish.
func (a *Auditor) checkRepair(final map[int]int, end telemetry.Event) {
	seg := &a.seg
	joined, departed := idSet(seg.churn.Joined), idSet(seg.churn.Departed)
	for _, r := range seg.roster {
		was, existed := seg.standing[r.id]
		if !existed && !joined[r.id] {
			a.violate(InvRepair, a.curEpoch, a.epochStartSeq, end.Seq,
				"agent %d appeared in a repair round without a declared join", r.id)
		}
		if existed && was != final[r.id] && !seg.nbhd[r.id] {
			a.violate(InvRepair, a.curEpoch, a.epochStartSeq, end.Seq,
				"agent %d changed partner (%d -> %d) outside the repair neighborhood", r.id, was, final[r.id])
		}
	}
	gone := make(map[int]bool)
	for id := range seg.standing {
		if _, still := final[id]; !still && !departed[id] {
			gone[id] = true
		}
	}
	for _, id := range sortedIDs(gone) {
		a.violate(InvRepair, a.curEpoch, a.epochStartSeq, end.Seq,
			"agent %d vanished from a repair round without a declared departure", id)
	}
}

// soloPen is agent i's penalty under its current assignment (0 when
// unmatched, as solo agents run alone).
func soloPen(d matching.Penalties, match matching.Matching, i int) float64 {
	if match[i] == matching.Unmatched {
		return 0
	}
	return d.At(i, match[i])
}
