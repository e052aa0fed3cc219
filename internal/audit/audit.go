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
//     in which both agents gain strictly more than α (recomputed via
//     matching.Penalties.BlockingPairs on the snapshot's penalty matrix).
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
	// InvRepair governs streaming rematch rounds (rematch_round events
	// with Kind "repair" or "full"): payloads parse, admitted agents
	// were queued, only neighborhood agents change partners, and nobody
	// joins or vanishes undeclared.
	InvRepair = "repair"
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
	// repair marks a streaming rematch round: the shard-partition checks
	// don't apply (repairs re-push no shard_matched events).
	repair bool
	// nbhd is the declared repair neighborhood; assigned tracks the
	// current round's assignment events in carried (wire repair) mode,
	// where partner/unpaired carry over from the superseded round and
	// only neighborhood agents may be re-assigned. assigned non-nil IS
	// the carried-mode flag.
	nbhd     map[int]bool
	assigned map[int]bool
}

// rematchChurn is a streaming rematch_round's Data payload: the churn
// the round absorbed, in event-log agent IDs.
type rematchChurn struct {
	Joined       []int `json:"joined"`
	Departed     []int `json:"departed"`
	Neighborhood []int `json:"neighborhood"`
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
	// Core streaming epochs: the previous epoch's final partner-by-ID
	// map (nil unless the previous core epoch was a streaming one) and
	// the current epoch's declared rematch mode and churn, for the
	// cross-epoch only-neighborhood-changed check.
	prevFinal map[int]int
	coreMode  string
	coreChurn rematchChurn
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
	a.snap = snap
	a.jobIdx = make(map[string]int, len(snap.Catalog))
	for i, name := range snap.Catalog {
		a.jobIdx[name] = i
	}
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
	case "full", "repair":
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
// assignment events yet (core streaming epochs emit their rematch_round
// before the assignments, so there is no superseded round to check).
func (a *Auditor) segmentAssigned() bool {
	return len(a.seg.pairs) > 0 || len(a.seg.partner) > 0 || len(a.seg.unpaired) > 0
}

// onStreamRematch handles a streaming rematch round, Kind "full" or
// "repair". The payload's joined agents must have been queued mid-epoch
// (wire) or appear in the epoch's snapshot roster (core); a repair
// round additionally pins the neighborhood — the only agents whose
// partners may change.
func (a *Auditor) onStreamRematch(e telemetry.Event) {
	var churn rematchChurn
	if e.Data != "" {
		if err := json.Unmarshal([]byte(e.Data), &churn); err != nil {
			a.violate(InvRepair, e.Epoch, e.Seq, e.Seq,
				"rematch_round %s payload unparseable: %v", e.Kind, err)
			churn = rematchChurn{}
		}
	} else {
		a.violate(InvRepair, e.Epoch, e.Seq, e.Seq,
			"rematch_round %s carries no churn payload", e.Kind)
	}
	inRoster := make(map[int]bool, len(a.roster))
	for _, r := range a.roster {
		inRoster[r.id] = true
	}
	if a.source == telemetry.SnapshotSourceCore {
		// Core streaming epochs are self-contained: the snapshot already
		// carries the post-churn roster, the rematch_round precedes all
		// assignments, and the only-neighborhood-changed contract is
		// checked across epochs at epoch_end.
		if a.segmentAssigned() {
			a.checkSegment(e, false)
			a.resetSegment()
		}
		a.coreMode = e.Kind
		a.coreChurn = churn
		nbhd := make(map[int]bool, len(churn.Neighborhood))
		for _, id := range churn.Neighborhood {
			nbhd[id] = true
			if a.seg.trusted && !inRoster[id] {
				a.violate(InvRepair, e.Epoch, e.Seq, e.Seq,
					"repair neighborhood names agent %d, not in this epoch's population", id)
			}
		}
		for _, id := range churn.Joined {
			if a.seg.trusted && !inRoster[id] {
				a.violate(InvRepair, e.Epoch, e.Seq, e.Seq,
					"rematch_round admits agent %d, not in this epoch's population", id)
			}
			if e.Kind == "repair" && !nbhd[id] {
				a.violate(InvRepair, e.Epoch, e.Seq, e.Seq,
					"joined agent %d outside the repair neighborhood", id)
			}
		}
		for _, id := range churn.Departed {
			if a.seg.trusted && inRoster[id] {
				a.violate(InvRepair, e.Epoch, e.Seq, e.Seq,
					"rematch_round departs agent %d, still in this epoch's population", id)
			}
		}
		if e.Kind == "repair" {
			a.seg.repair = true
			a.seg.nbhd = nbhd
		}
		return
	}

	// Wire: close the superseded round, admit the queued joiners, and —
	// for repairs — carry its assignments into a neighborhood-restricted
	// segment.
	prev := a.seg
	if a.segmentAssigned() {
		a.checkSegment(e, false)
	}
	for _, id := range churn.Joined {
		if !a.pendingMid[id] {
			a.violate(InvRepair, e.Epoch, e.Seq, e.Seq,
				"rematch_round admits agent %d, which never registered mid-epoch", id)
			continue
		}
		delete(a.pendingMid, id)
	}
	if e.Kind == "full" {
		a.resetSegment()
		return
	}
	nbhd := make(map[int]bool, len(churn.Neighborhood))
	for _, id := range churn.Neighborhood {
		nbhd[id] = true
	}
	ns := segment{
		roster:   append([]rosterEntry(nil), a.roster...),
		partner:  prev.partner,
		unpaired: prev.unpaired,
		shardOf:  prev.shardOf,
		trusted:  a.synced && prev.trusted,
		repair:   true,
		nbhd:     nbhd,
		assigned: make(map[int]bool),
	}
	inRoster = make(map[int]bool, len(ns.roster))
	for _, r := range ns.roster {
		inRoster[r.id] = true
	}
	if ns.trusted {
		for _, id := range churn.Neighborhood {
			if !inRoster[id] {
				a.violate(InvRepair, e.Epoch, e.Seq, e.Seq,
					"repair neighborhood names agent %d, not in this round's population", id)
			}
		}
		for _, id := range churn.Joined {
			if !nbhd[id] {
				a.violate(InvRepair, e.Epoch, e.Seq, e.Seq,
					"joined agent %d outside the repair neighborhood", id)
			}
		}
	}
	// Departures sever their colocations: the surviving side must be in
	// the neighborhood, since repair has to re-assign it.
	for _, id := range churn.Departed {
		if ns.trusted && inRoster[id] {
			a.violate(InvRepair, e.Epoch, e.Seq, e.Seq,
				"rematch_round departs agent %d, still in this round's population", id)
		}
		if p, ok := ns.partner[id]; ok {
			delete(ns.partner, id)
			if q, ok2 := ns.partner[p]; ok2 && q == id {
				delete(ns.partner, p)
				if ns.trusted && inRoster[p] && !nbhd[p] {
					a.violate(InvRepair, e.Epoch, e.Seq, e.Seq,
						"departure of agent %d displaced agent %d outside the repair neighborhood", id, p)
				}
			}
		}
		delete(ns.unpaired, id)
	}
	a.seg = ns
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
	if a.seg.assigned != nil {
		a.onPairRepair(e)
		return
	}
	for _, id := range [2]int{e.Agent, e.Partner} {
		if p, dup := a.seg.partner[id]; dup {
			a.violate(InvCoverage, e.Epoch, e.Seq, e.Seq,
				"agent %d matched twice in one round (with %d, then %d)", id, p, e.Agent+e.Partner-id)
		}
		if a.seg.unpaired[id] {
			a.violate(InvCoverage, e.Epoch, e.Seq, e.Seq,
				"agent %d both unpaired and matched in one round", id)
		}
	}
	a.seg.partner[e.Agent] = e.Partner
	a.seg.partner[e.Partner] = e.Agent
	a.seg.pairs = append(a.seg.pairs, pairRec{a: e.Agent, b: e.Partner, pred: e.Predicted, seq: e.Seq})
}

// onPairRepair records a pair in a carried (wire repair) segment:
// assignments override the carried state, but only neighborhood agents
// may be touched — including the old partners the overrides displace.
func (a *Auditor) onPairRepair(e telemetry.Event) {
	seg := &a.seg
	for _, id := range [2]int{e.Agent, e.Partner} {
		if seg.assigned[id] {
			a.violate(InvCoverage, e.Epoch, e.Seq, e.Seq,
				"agent %d assigned twice in one repair round", id)
		}
		if !seg.nbhd[id] {
			a.violate(InvRepair, e.Epoch, e.Seq, e.Seq,
				"agent %d re-matched outside the repair neighborhood", id)
		}
	}
	for _, id := range [2]int{e.Agent, e.Partner} {
		other := e.Agent + e.Partner - id
		if p, ok := seg.partner[id]; ok && p != other {
			if q, ok2 := seg.partner[p]; ok2 && q == id {
				delete(seg.partner, p)
				if seg.trusted && !seg.nbhd[p] {
					a.violate(InvRepair, e.Epoch, e.Seq, e.Seq,
						"repair of agent %d displaced agent %d outside the neighborhood", id, p)
				}
			}
		}
		delete(seg.unpaired, id)
	}
	seg.partner[e.Agent] = e.Partner
	seg.partner[e.Partner] = e.Agent
	seg.assigned[e.Agent], seg.assigned[e.Partner] = true, true
	seg.pairs = append(seg.pairs, pairRec{a: e.Agent, b: e.Partner, pred: e.Predicted, seq: e.Seq})
}

func (a *Auditor) onUnpaired(e telemetry.Event) {
	if !a.inEpoch {
		a.violate(InvBracket, e.Epoch, e.Seq, e.Seq,
			"agent_unpaired %d outside any epoch", e.Agent)
		return
	}
	if a.seg.assigned != nil {
		seg := &a.seg
		if seg.assigned[e.Agent] {
			a.violate(InvCoverage, e.Epoch, e.Seq, e.Seq,
				"agent %d assigned twice in one repair round", e.Agent)
			return
		}
		if !seg.nbhd[e.Agent] {
			a.violate(InvRepair, e.Epoch, e.Seq, e.Seq,
				"agent %d re-assigned outside the repair neighborhood", e.Agent)
		}
		if p, ok := seg.partner[e.Agent]; ok {
			if q, ok2 := seg.partner[p]; ok2 && q == e.Agent {
				delete(seg.partner, p)
				if seg.trusted && !seg.nbhd[p] {
					a.violate(InvRepair, e.Epoch, e.Seq, e.Seq,
						"unpairing agent %d displaced agent %d outside the neighborhood", e.Agent, p)
				}
			}
			delete(seg.partner, e.Agent)
		}
		seg.unpaired[e.Agent] = true
		seg.assigned[e.Agent] = true
		return
	}
	if _, dup := a.seg.partner[e.Agent]; dup || a.seg.unpaired[e.Agent] {
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
	if e.Kind == telemetry.KindAborted {
		// The epoch errored or was canceled mid-round: its bracket closes,
		// but there is no completed matching to hold to coverage,
		// conservation or stability, and the next streaming epoch has no
		// baseline to be compared against.
		a.warnf("epoch %d aborted: round unchecked (seq %d..%d)", a.curEpoch, a.epochStartSeq, e.Seq)
		a.coreMode, a.pendingMid = "", nil
	} else {
		a.checkSegment(e, true)
	}
	if len(a.pendingMid) > 0 {
		ids := make([]int, 0, len(a.pendingMid))
		for id := range a.pendingMid {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		a.violate(InvLifecycle, a.curEpoch, a.epochStartSeq, e.Seq,
			"agents %v registered mid-epoch but no rematch round admitted them", ids)
		a.pendingMid = nil
	}
	if a.source == telemetry.SnapshotSourceCore {
		a.checkCoreStream(e)
		// Core rosters are epoch-local; the next epoch brings its own.
		a.roster = nil
	}
	a.inEpoch = false
	a.lastEpoch = a.curEpoch
	a.haveLastEpoch = true
	a.rep.Epochs++
}

// checkCoreStream runs the cross-epoch half of InvRepair for core
// streaming epochs: against the previous streaming epoch's final
// matching, only declared-neighborhood agents may have changed
// partners, only declared joiners may appear, and only declared
// departures may vanish. Classic epochs reset the baseline — their
// index-space agents are not comparable across epochs.
func (a *Auditor) checkCoreStream(end telemetry.Event) {
	mode, churn := a.coreMode, a.coreChurn
	a.coreMode, a.coreChurn = "", rematchChurn{}
	seg := &a.seg
	if mode == "" || !seg.trusted {
		a.prevFinal = nil
		return
	}
	idx := make(map[int]int, len(seg.roster))
	for i, r := range seg.roster {
		idx[r.id] = i
	}
	final := make(map[int]int, len(seg.roster))
	for _, r := range seg.roster {
		final[r.id] = matching.Unmatched
		if pid, ok := seg.partner[r.id]; ok {
			if q, okq := seg.partner[pid]; okq && q == r.id {
				if _, in := idx[pid]; in {
					final[r.id] = pid
				}
			}
		}
	}
	if mode == "repair" && a.prevFinal != nil {
		nbhd := make(map[int]bool, len(churn.Neighborhood))
		for _, id := range churn.Neighborhood {
			nbhd[id] = true
		}
		joined := make(map[int]bool, len(churn.Joined))
		for _, id := range churn.Joined {
			joined[id] = true
		}
		departed := make(map[int]bool, len(churn.Departed))
		for _, id := range churn.Departed {
			departed[id] = true
		}
		for _, r := range seg.roster {
			id := r.id
			prevP, existed := a.prevFinal[id]
			if !existed {
				if !joined[id] {
					a.violate(InvRepair, a.curEpoch, a.epochStartSeq, end.Seq,
						"agent %d appeared in a repair epoch without a declared join", id)
				}
				continue
			}
			if prevP != final[id] && !nbhd[id] {
				a.violate(InvRepair, a.curEpoch, a.epochStartSeq, end.Seq,
					"agent %d changed partner (%d -> %d) outside the repair neighborhood",
					id, prevP, final[id])
			}
		}
		gone := make([]int, 0, len(departed))
		for id := range a.prevFinal {
			if _, still := final[id]; !still && !departed[id] {
				gone = append(gone, id)
			}
		}
		sort.Ints(gone)
		for _, id := range gone {
			a.violate(InvRepair, a.curEpoch, a.epochStartSeq, end.Seq,
				"agent %d vanished from a repair epoch without a declared departure", id)
		}
	}
	a.prevFinal = final
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
// one). Accounting runs only on the final round, which is the one the
// epoch summary reports.
func (a *Auditor) checkSegment(end telemetry.Event, final bool) {
	seg := &a.seg
	if !seg.trusted {
		// Either no authoritative roster vouches for this population, or
		// a Seq gap mid-round means assignments may simply be missing
		// from the stream — flagging them as coverage violations would
		// turn ring overflow into false alarms.
		a.warnf("epoch %d round unchecked: no authoritative roster or events lost mid-round (seq %d..%d)",
			a.curEpoch, a.epochStartSeq, end.Seq)
		return
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
	for id := range seg.unpaired {
		if _, ok := idx[id]; !ok {
			a.violate(InvCoverage, a.curEpoch, a.epochStartSeq, end.Seq,
				"agent_unpaired names agent %d, not in this round's population", id)
		}
	}
	// Coverage: every population agent assigned exactly once (double
	// assignment was already flagged at record time).
	var missing []int
	for _, r := range seg.roster {
		if _, ok := seg.partner[r.id]; !ok && !seg.unpaired[r.id] {
			missing = append(missing, r.id)
		}
	}
	if len(missing) > 0 {
		a.violate(InvCoverage, a.curEpoch, a.epochStartSeq, end.Seq,
			"agents %v neither matched nor explicitly unpaired this round", missing)
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
	} else if a.snap != nil && a.snap.Shards > 1 && !seg.repair {
		// Repair rounds re-push only the neighborhood and emit no
		// shard_matched events, so the partition checks don't apply.
		a.violate(InvShard, a.curEpoch, a.epochStartSeq, end.Seq,
			"snapshot declares %d shards but the round recorded no shard_matched events", a.snap.Shards)
	}

	if a.snap == nil {
		if final {
			a.warnf("epoch %d has no epoch_snapshot (older log format?): penalty checks skipped", a.curEpoch)
		}
		return
	}

	// Reconstruct the index-space matching, and read penalties as the
	// market does: the agent-level penalty of a pair is the entry of the
	// snapshot's job-level matrix for their jobs, an exact lookup.
	pen := func(i, j int) (float64, bool) {
		ji, oki := a.jobIdx[seg.roster[i].job]
		jj, okj := a.jobIdx[seg.roster[j].job]
		if !oki || !okj {
			return 0, false
		}
		return a.snap.Matrix[ji][jj], true
	}
	// The round's matching comes from the partner map (mutually
	// consistent links only): in a plain round it is exactly the pair
	// events, in a carried repair round it is the prior round's matching
	// with the repair's overrides applied.
	match := make(matching.Matching, n)
	for i := range match {
		match[i] = matching.Unmatched
	}
	for i, r := range seg.roster {
		pid, ok := seg.partner[r.id]
		if !ok {
			continue
		}
		j, okj := idx[pid]
		if !okj {
			if seg.repair {
				a.violate(InvRepair, a.curEpoch, a.epochStartSeq, end.Seq,
					"agent %d still paired with %d, which left the population unrepaired", r.id, pid)
			}
			continue
		}
		if q, okq := seg.partner[pid]; okq && q == r.id {
			match[i] = j
		}
	}
	for _, p := range seg.pairs {
		i, oki := idx[p.a]
		j, okj := idx[p.b]
		if !oki || !okj {
			continue // already flagged above
		}
		want, ok := pen(i, j)
		if !ok {
			a.violate(InvSnapshot, a.curEpoch, p.seq, p.seq,
				"pair %d+%d runs a job missing from the snapshot catalog", p.a, p.b)
			continue
		}
		if math.Float64bits(p.pred) != math.Float64bits(want) {
			a.violate(InvConservation, a.curEpoch, p.seq, p.seq,
				"pair %d+%d predicted penalty %v, but the snapshot matrix says %v",
				p.a, p.b, p.pred, want)
		}
	}

	// Conservation: replay the epoch accounting — the sum runs in
	// roster (session) order, exactly as the coordinator's loop does,
	// so the float association matches and equality is bit-for-bit.
	if final && n > 0 {
		var sum float64
		complete := true
		for i := range seg.roster {
			if match[i] == matching.Unmatched {
				continue
			}
			v, ok := pen(i, match[i])
			if !ok {
				complete = false
				break
			}
			sum += v
		}
		want := sum / float64(n)
		got := end.Value
		if a.snap.Source == telemetry.SnapshotSourceCore {
			// In-process epochs report the oracle mean in Value (not
			// recomputable from the log) and the matrix-derived mean in
			// Predicted.
			got = end.Predicted
		}
		if complete && math.Float64bits(got) != math.Float64bits(want) {
			a.violate(InvConservation, a.curEpoch, a.epochStartSeq, end.Seq,
				"epoch reports mean penalty %v, but the pair penalties sum to %v", got, want)
		}
	}

	// Stability: recompute blocking pairs over every pair of agents,
	// reading penalties through each agent's catalog row — no
	// agents×agents matrix. At α = 0 the count is informational (Figure
	// 10's measurement); under a declared contract any pair is a
	// violation.
	if n > 1 {
		d := matching.Penalties{Matrix: a.snap.Matrix, Class: make([]int, n)}
		for i, r := range seg.roster {
			row, ok := a.jobIdx[r.job]
			if !ok {
				return // a job missing from the snapshot catalog: nothing to recompute
			}
			d.Class[i] = row
		}
		a.rep.BlockingPairs += d.CountBlockingPairs(match, 0)
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
}

// soloPen is agent i's penalty under its current assignment (0 when
// unmatched, as solo agents run alone).
func soloPen(d matching.Penalties, match matching.Matching, i int) float64 {
	if match[i] == matching.Unmatched {
		return 0
	}
	return d.At(i, match[i])
}
