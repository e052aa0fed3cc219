package market

import (
	"context"
	"fmt"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"cooper/internal/agent"
	"cooper/internal/audit"
	"cooper/internal/matching"
	"cooper/internal/policy"
	"cooper/internal/profiler"
	"cooper/internal/shard"
	"cooper/internal/stats"
	"cooper/internal/telemetry"
	"cooper/internal/workload"
)

// testEngine builds an engine over a four-class catalog whose penalties
// make every class prefer the next one.
func testEngine(t *testing.T, cfg Config) (*Engine, []workload.Job) {
	t.Helper()
	catalog := []workload.Job{{Name: "a", BandwidthGBps: 1}, {Name: "b", BandwidthGBps: 2},
		{Name: "c", BandwidthGBps: 3}, {Name: "d", BandwidthGBps: 4}}
	matrix := make([][]float64, len(catalog))
	for i := range matrix {
		matrix[i] = make([]float64, len(catalog))
		for j := range matrix[i] {
			matrix[i][j] = 0.1 * float64(1+(j-i+len(catalog))%len(catalog))
		}
	}
	cfg.Policy = policy.Greedy{}
	return New(Engine{Config: cfg, Catalog: catalog, Matrix: matrix, Rand: stats.NewRand(1),
		Tel: telemetry.New(), Source: telemetry.SnapshotSourceWire}), catalog
}

func rosterOf(catalog []workload.Job, firstID, n int) Roster {
	r := Roster{IDs: make([]int, n), Jobs: make([]workload.Job, n)}
	for i := range r.Jobs {
		r.IDs[i], r.Jobs[i] = firstID+i, catalog[i%len(catalog)]
	}
	return r
}

// A round rejected for bad input leaves no trace: no events, no consumed
// epoch index, and Close on the never-opened epoch records nothing.
func TestRejectedRoundOpensNothing(t *testing.T) {
	e, catalog := testEngine(t, Config{Rematch: true})
	ctx := context.Background()
	for name, round := range map[string]func(*Epoch) error{
		"off-catalog clear": func(ep *Epoch) error {
			_, err := ep.Clear(ctx, Roster{Jobs: []workload.Job{{Name: "nope"}}})
			return err
		},
		"unknown departure": func(ep *Epoch) error { _, err := ep.Step(ctx, Roster{}, []int{9}); return err },
		"empty after churn": func(ep *Epoch) error { _, err := ep.Step(ctx, Roster{}, nil); return err },
	} {
		ep := e.Begin()
		if err := round(ep); err == nil {
			t.Errorf("%s accepted", name)
		}
		ep.Close()
	}
	if evs := e.Tel.EventRing().Events(); len(evs) != 0 {
		t.Fatalf("rejected rounds recorded %d events: %+v", len(evs), evs)
	}
	ep := e.Begin()
	defer ep.Close()
	if _, err := ep.Step(ctx, Roster{Jobs: catalog}, nil); err != nil {
		t.Fatal(err)
	}
	if ep.Index != 0 {
		t.Fatalf("first opened epoch has index %d: rejected rounds consumed indices", ep.Index)
	}
}

// Within one epoch, a Step repairs around the preceding Clear under the
// caller's IDs: only the churn's neighborhood is touched, the rest of the
// boundary matching stands, and the log audits clean.
func TestStepRepairsAroundTheEpochsClear(t *testing.T) {
	e, catalog := testEngine(t, Config{Rematch: true})
	ctx := context.Background()
	tel := e.Tel
	base := rosterOf(catalog, 100, 40)
	// The wire auditor derives rosters from lifecycle events, as the
	// server emits them at admission.
	for i, id := range base.IDs {
		tel.RecordIn(nil, telemetry.Event{Type: telemetry.EventAgentRegistered, Agent: id, Partner: -1, Job: base.Jobs[i].Name})
	}
	ep := e.Begin()
	r0, err := ep.Clear(ctx, base)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r0.Match {
		ep.Assigned(r0, i, 0)
	}
	// Agent 103 dies, agent 900 registers, and a round absorbs them.
	tel.RecordIn(nil, telemetry.Event{Type: telemetry.EventAgentReaped, Epoch: 0, Agent: 103, Partner: -1})
	tel.RecordIn(nil, telemetry.Event{Type: telemetry.EventAgentRegistered, Epoch: 0, Agent: 900, Partner: -1, Job: "b"})
	r1, err := ep.Step(ctx, Roster{IDs: []int{900}, Jobs: catalog[1:2]}, []int{103})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Mode != "repair" || r1.Joined != 1 || r1.Departed != 1 {
		t.Fatalf("round 1 = %s joined %d departed %d, want a 1+1 repair", r1.Mode, r1.Joined, r1.Departed)
	}
	touched := make(map[int]bool)
	for _, i := range r1.Touched() {
		touched[r1.IDs[i]] = true
		ep.Assigned(r1, i, 0)
	}
	if !touched[900] || len(touched) >= len(r1.Match) {
		t.Fatalf("repair touched %d of %d agents (joiner included: %v)", len(touched), len(r1.Match), touched[900])
	}
	before := make(map[int]int, len(r0.Match))
	for i, j := range r0.Match {
		before[r0.IDs[i]] = -1
		if j != matching.Unmatched {
			before[r0.IDs[i]] = r0.IDs[j]
		}
	}
	for i, j := range r1.Match {
		if id := r1.IDs[i]; !touched[id] && j != matching.Unmatched && before[id] != r1.IDs[j] {
			t.Errorf("untouched agent %d moved from %d to %d", id, before[id], r1.IDs[j])
		}
	}
	penalties, mean := r1.Penalties()
	ep.End(Summary{Penalties: penalties, MeanPenalty: mean})
	ep.Close() // after End: records nothing
	events := tel.EventRing().Events()
	if last := events[len(events)-1]; last.Type != telemetry.EventEpochEnd || last.Kind != "" {
		t.Fatalf("log ends with %+v, want one completed epoch_end", last)
	}
	rep := audit.Replay(events, audit.Options{})
	for _, v := range rep.Violations {
		t.Errorf("%s: %s", v.Invariant, v.Detail)
	}
}

// TestClearMatchesAndAssessesLikeTheReferenceProtocol: an unsharded clear
// never expands penalties to agents, yet its matching is the policy's
// over the agents×agents expansion for the same RNG draws, its
// recommendations are the message exchange's (§IV-B) over the expanded
// rows — Action and ExpectedGain — and its blocking-pair and break-away
// counts are the numbers of pairs and agents that exchange reveals.
func TestClearMatchesAndAssessesLikeTheReferenceProtocol(t *testing.T) {
	for _, pol := range []policy.Policy{policy.StableMarriageRandom{}, policy.StableMarriagePartition{}, policy.StableRoommate{}, policy.Greedy{}} {
		e, catalog := testEngine(t, Config{Alpha: 0.05})
		e.Policy, e.Assess = pol, true
		roster := rosterOf(catalog, 0, 37)
		roster.IDs = nil
		ep := e.Begin()
		r, err := ep.Clear(context.Background(), roster)
		if err != nil {
			t.Fatal(err)
		}
		ep.Close()

		d, err := profiler.ExpandToAgents(e.Matrix, catalog, workload.Population{Jobs: roster.Jobs})
		if err != nil {
			t.Fatal(err)
		}
		bw := make([]float64, len(roster.Jobs))
		agents := make([]*agent.Agent, len(roster.Jobs))
		for i, job := range roster.Jobs {
			bw[i] = job.BandwidthGBps
			agents[i] = agent.New(i, job.Name, d[i])
		}
		match, err := pol.Assign(d, policy.Context{BandwidthGBps: bw, Rand: stats.NewRand(1)})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r.Match, match) {
			t.Fatalf("%s: engine matched %v, the policy over the expansion %v", pol.Name(), r.Match, match)
		}
		recs, err := agent.Exchange(agents, r.Match, e.Alpha)
		if err != nil {
			t.Fatal(err)
		}
		breaks := 0
		for i, rec := range recs {
			got := r.Assessment.Recommendation(i)
			if got.AgentID != i || got.Action != rec.Action || got.ExpectedGain != rec.ExpectedGain {
				t.Fatalf("%s: engine assessed agent %d %+v, the exchange %+v", pol.Name(), i, got, rec)
			}
			if rec.Action == agent.BreakAway {
				breaks++
			}
		}
		if r.Assessment.BreakAways != breaks {
			t.Fatalf("%s: engine counted %d break-aways, the exchange %d", pol.Name(), r.Assessment.BreakAways, breaks)
		}
		if want := len(agent.BlockingPairsFromRecommendations(recs)); r.Assessment.BlockingPairs != want {
			t.Fatalf("%s: engine counted %d blocking pairs, the exchange %d", pol.Name(), r.Assessment.BlockingPairs, want)
		}
	}
}

// TestEngineBuildsNoAgentMatrix pins what keeps a clear linear in agents:
// the engine neither imports the expansion's package nor runs the
// per-agent message exchange, nor lists blocking partners; all of them
// stay reference code for tests, experiments and the benchmark.
func TestEngineBuildsNoAgentMatrix(t *testing.T) {
	files, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if !strings.HasSuffix(f.Name(), ".go") || strings.HasSuffix(f.Name(), "_test.go") {
			continue
		}
		src, err := os.ReadFile(f.Name())
		if err != nil {
			t.Fatal(err)
		}
		for _, bad := range []string{`"cooper/internal/profiler"`, "agent.Exchange(", "agent.New(",
			"rematch.Recommendations(", "rematch.RecommendationsWithin(", "agent.BlockingPairsFromRecommendations("} {
			if strings.Contains(string(src), bad) {
				t.Errorf("%s uses %s", f.Name(), bad)
			}
		}
	}
}

// TestEngineRemembersEachLiveAgentsShard holds the partition a sharded
// engine hands its market equal to a fresh ring's partition of the
// round's roster, every round. The engine carries each agent's shard by
// position from the standing round — through a Step's ledger compaction,
// or in a Clear wherever the roster holds the same ID on the same row —
// and hashes only the rest. The rounds: 200 streaming epochs, repairs
// and full clears; a wire-style epoch, a boundary clear over the live
// roster and Steps that reseed the ledger from it; a boundary clear that
// drops agents and draws their jobs afresh; and an in-process batch
// round, which has no stable IDs.
func TestEngineRemembersEachLiveAgentsShard(t *testing.T) {
	const shards = 8
	e, catalog := testEngine(t, Config{Rematch: true, Shards: shards})
	ctx := context.Background()
	rng := stats.NewRand(15)
	check := func(r *Round, what string) {
		t.Helper()
		want, _ := shard.NewRing(shards).PartitionIDs(r.Jobs, r.IDs)
		if !reflect.DeepEqual(r.ShardOf, want) {
			t.Fatalf("%s: the engine's partition differs from a fresh ring's", what)
		}
	}
	sample := func(n int) []workload.Job {
		jobs := make([]workload.Job, n)
		for i := range jobs {
			jobs[i] = catalog[rng.Intn(len(catalog))]
		}
		return jobs
	}
	departures := func(live []int) []int {
		var depart []int
		for _, p := range rng.Perm(len(live))[:2+rng.Intn(4)] {
			depart = append(depart, live[p])
		}
		return depart
	}

	var last *Round
	modes := make(map[string]int)
	for epoch := 0; epoch < 200; epoch++ {
		join, depart := sample(3+rng.Intn(4)), []int(nil)
		if epoch == 0 {
			join = sample(200)
		} else {
			depart = departures(last.IDs)
		}
		ep := e.Begin()
		r, err := ep.Step(ctx, Roster{Jobs: join}, depart)
		if err != nil {
			t.Fatal(err)
		}
		ep.End(Summary{})
		modes[r.Mode]++
		check(r, fmt.Sprintf("epoch %d (%s)", epoch, r.Mode))
		last = r
	}
	if modes["repair"] < 100 || modes["full"] < 10 {
		t.Fatalf("rounds ran as %v: want repairs and full clears both", modes)
	}

	// A wire epoch: the boundary clear over the live roster, then Steps
	// that reseed the ledger from it, with caller-assigned join IDs.
	ep := e.Begin()
	r, err := ep.Clear(ctx, Roster{IDs: last.IDs, Jobs: last.Jobs})
	if err != nil {
		t.Fatal(err)
	}
	check(r, "wire boundary clear")
	for k := 0; k < 5; k++ {
		join := Roster{IDs: []int{20000 + 2*k, 20001 + 2*k}, Jobs: sample(2)}
		if r, err = ep.Step(ctx, join, departures(r.IDs)); err != nil {
			t.Fatal(err)
		}
		check(r, fmt.Sprintf("wire step %d (%s)", k, r.Mode))
	}
	ep.End(Summary{})

	// A boundary clear over a newcomer and half the survivors, their jobs
	// drawn afresh: most come back running a different one.
	roster := Roster{IDs: append([]int{9000}, r.IDs[:len(r.IDs)/2]...)}
	roster.Jobs = sample(len(roster.IDs))
	ep = e.Begin()
	wire, err := ep.Clear(ctx, roster)
	if err != nil {
		t.Fatal(err)
	}
	ep.End(Summary{})
	check(wire, "boundary clear")

	// A batch round over positions, then one more: hashed afresh.
	for k := 0; k < 2; k++ {
		ep = e.Begin()
		batch, err := ep.Clear(ctx, Roster{Jobs: sample(51)})
		if err != nil {
			t.Fatal(err)
		}
		ep.End(Summary{})
		check(batch, fmt.Sprintf("batch round %d", k))
	}
}

// TestStepRosterIsTheLedgers pins the Jobs a Step's round views: over
// 300 streaming rounds, sharded and not, every round's Jobs[i] is
// Catalog[JobIdx[i]], one per agent of the ledger. The rounds are
// repairs and full clears; every 40th epoch is a wire-style one, a
// boundary Clear and Steps under caller IDs that reseed the ledger from
// it; every 30th meets an off-catalog join and an unknown departure,
// both rejected with the previous round's Jobs view intact; every 50th
// runs first under a canceled context, which a sharded round observes
// after ApplyIDs.
func TestStepRosterIsTheLedgers(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			e, catalog := testEngine(t, Config{Rematch: true, Shards: shards})
			rng := stats.NewRand(23)
			check := func(r *Round, what string) {
				t.Helper()
				if len(r.Jobs) != len(r.JobIdx) || len(r.Jobs) != e.ledger.Len() {
					t.Fatalf("%s: %d jobs for %d rows and a ledger of %d", what, len(r.Jobs), len(r.JobIdx), e.ledger.Len())
				}
				for i, row := range r.JobIdx {
					if r.Jobs[i] != catalog[row] {
						t.Fatalf("%s: agent %d runs %q on row %d (%q)", what, i, r.Jobs[i].Name, row, catalog[row].Name)
					}
				}
			}
			sample := func(n int) []workload.Job {
				jobs := make([]workload.Job, n)
				for i := range jobs {
					jobs[i] = catalog[rng.Intn(len(catalog))]
				}
				return jobs
			}
			departures := func(live []int) []int {
				var depart []int
				for _, p := range rng.Perm(len(live))[:2+rng.Intn(4)] {
					depart = append(depart, live[p])
				}
				return depart
			}
			var last *Round
			unchanged := func(what string, step func() error) {
				t.Helper()
				before := slices.Clone(last.Jobs)
				if err := step(); err == nil {
					t.Fatalf("%s accepted", what)
				}
				if !slices.Equal(last.Jobs, before) {
					t.Fatalf("%s changed the previous round's jobs", what)
				}
			}
			canceled, cancel := context.WithCancel(context.Background())
			cancel()

			modes := make(map[string]int)
			for rounds := 0; rounds < 300; {
				epoch := rounds
				ep := e.Begin()
				if epoch > 0 && epoch%40 == 0 {
					r, err := ep.Clear(context.Background(), Roster{IDs: last.IDs, Jobs: slices.Clone(last.Jobs)})
					if err != nil {
						t.Fatal(err)
					}
					for k := 0; k < 3; k++ {
						join := Roster{IDs: []int{100000 + 10*epoch + 2*k, 100001 + 10*epoch + 2*k}, Jobs: sample(2)}
						if r, err = ep.Step(context.Background(), join, departures(r.IDs)); err != nil {
							t.Fatal(err)
						}
						check(r, fmt.Sprintf("epoch %d wire step %d (%s)", epoch, k, r.Mode))
						modes[r.Mode]++
						rounds++
					}
					ep.End(Summary{})
					last = r
					continue
				}
				join, depart := sample(3+rng.Intn(4)), []int(nil)
				if epoch == 0 {
					join = sample(200)
				} else {
					depart = departures(last.IDs)
				}
				if epoch%30 == 29 {
					unchanged("an off-catalog join", func() error {
						_, err := ep.Step(context.Background(), Roster{Jobs: append(slices.Clone(join), workload.Job{Name: "nope"})}, depart)
						return err
					})
					unchanged("an unknown departure", func() error {
						_, err := ep.Step(context.Background(), Roster{Jobs: join}, append(slices.Clone(depart), -7))
						return err
					})
				}
				if epoch%50 == 49 {
					_, err := ep.Step(canceled, Roster{Jobs: join}, depart)
					if shards > 1 && err == nil {
						t.Fatalf("epoch %d: a sharded round ignored its canceled context", epoch)
					}
					ep.Close()
					ep = e.Begin()
					// The canceled round applied the churn; the next one
					// absorbs none.
					join, depart = nil, nil
				}
				r, err := ep.Step(context.Background(), Roster{Jobs: join}, depart)
				if err != nil {
					t.Fatalf("epoch %d: %v", epoch, err)
				}
				ep.End(Summary{})
				check(r, fmt.Sprintf("epoch %d (%s)", epoch, r.Mode))
				modes[r.Mode]++
				rounds++
				last = r
			}
			if modes["repair"] < 100 || modes["full"] < 10 {
				t.Fatalf("rounds ran as %v: want repairs and full clears both", modes)
			}
		})
	}
}

// An epoch whose participants all died clears an empty round, whose
// mean penalty is 0, not NaN: the JSONL sink encodes its epoch_end and
// keeps writing.
func TestEmptyRoundKeepsTheSinkWriting(t *testing.T) {
	e, _ := testEngine(t, Config{})
	var sink strings.Builder
	e.Tel.EventRing().SetSink(&sink)
	ep := e.Begin()
	r, err := ep.Clear(context.Background(), Roster{IDs: []int{}})
	if err != nil {
		t.Fatal(err)
	}
	penalties, mean := r.Penalties()
	ep.End(Summary{Penalties: penalties, MeanPenalty: mean})
	if err := e.Tel.EventRing().Err(); err != nil {
		t.Fatalf("sink: %v", err)
	}
	if !strings.Contains(sink.String(), `"`+string(telemetry.EventEpochEnd)+`"`) {
		t.Fatalf("no epoch_end line in the sink:\n%s", sink.String())
	}
	if len(penalties) != 0 || mean != 0 {
		t.Fatalf("empty round's penalties = %v, mean %v; want none and 0", penalties, mean)
	}
}
