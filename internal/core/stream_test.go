package core

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"testing"

	"cooper/internal/audit"
	"cooper/internal/matching"
	"cooper/internal/telemetry"
	"cooper/internal/workload"
)

func streamFramework(t *testing.T, workers, shards int, seed int64) *Framework {
	t.Helper()
	f, err := NewFramework(context.Background(), Config{
		Seed:     seed,
		Market:   MarketConfig{Rematch: true, Shards: shards},
		Pipeline: PipelineConfig{Oracle: true, Workers: workers},
		Observe:  ObserveConfig{Telemetry: telemetry.New()},
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// streamTrace is the shared churn scenario: a cold-start epoch, two
// low-churn epochs that must repair incrementally, and a heavy-churn
// epoch that must trip the threshold back to a full clear.
func streamTrace(catalog []workload.Job) []Churn {
	join := func(idx ...int) []workload.Job {
		jobs := make([]workload.Job, len(idx))
		for i, k := range idx {
			jobs[i] = catalog[k%len(catalog)]
		}
		return jobs
	}
	cold := make([]int, 40)
	for i := range cold {
		cold[i] = i
	}
	heavy := make([]int, 12)
	for i := range heavy {
		heavy[i] = 7 + i
	}
	// Churn is cumulative between full clears: with baseN=40 and the
	// default 10% threshold the budget is 4, so 1 + 3 stays in repair
	// territory and the heavy epoch blows well past it.
	return []Churn{
		{Join: join(cold...)},
		{Join: join(3)},
		{Join: join(5), Depart: []int{17, 30}},
		{Join: join(heavy...), Depart: []int{1, 4, 9, 25}},
	}
}

func TestStreamEpochRequiresRematch(t *testing.T) {
	f := oracleFramework(t, nil, 1)
	if _, err := f.StreamEpoch(Churn{Join: f.Catalog()[:2]}); err == nil ||
		!strings.Contains(err.Error(), "Rematch") {
		t.Fatalf("StreamEpoch without Market.Rematch: %v", err)
	}
}

func TestStreamEpochModes(t *testing.T) {
	f := streamFramework(t, 0, 1, 11)
	trace := streamTrace(f.Catalog())
	reports := make([]*EpochReport, len(trace))
	for e, churn := range trace {
		rep, err := f.StreamEpoch(churn)
		if err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
		if rep.Rematch == nil {
			t.Fatalf("epoch %d: no rematch summary", e)
		}
		if err := rep.Match.Validate(); err != nil {
			t.Fatalf("epoch %d: invalid matching: %v", e, err)
		}
		reports[e] = rep
	}
	for e, want := range []string{"full", "repair", "repair", "full"} {
		if got := reports[e].Rematch.Mode; got != want {
			t.Fatalf("epoch %d mode = %q, want %q", e, got, want)
		}
	}
	if nb := reports[1].Rematch.Neighborhood; nb == 0 || nb >= len(reports[1].AgentIDs) {
		t.Fatalf("repair neighborhood = %d of %d agents", nb, len(reports[1].AgentIDs))
	}

	// Repair epochs only move agents inside the declared neighborhood:
	// every surviving agent outside it keeps its epoch-0 partner.
	partnerOf := func(rep *EpochReport) map[int]int {
		m := make(map[int]int, len(rep.AgentIDs))
		for i, p := range rep.Match {
			if p == matching.Unmatched {
				m[rep.AgentIDs[i]] = matching.Unmatched
			} else {
				m[rep.AgentIDs[i]] = rep.AgentIDs[p]
			}
		}
		return m
	}
	prev := partnerOf(reports[0])
	cur := partnerOf(reports[1])
	// Epoch 1's neighborhood in stable IDs comes from the summary count
	// only; recover it from the flight log instead.
	var nbhd map[int]bool
	for _, ev := range f.Telemetry().EventRing().Events() {
		if ev.Type == telemetry.EventRematchRound && ev.Epoch == 1 {
			var payload struct {
				Neighborhood []int `json:"neighborhood"`
			}
			if err := json.Unmarshal([]byte(ev.Data), &payload); err != nil {
				t.Fatalf("rematch payload: %v", err)
			}
			nbhd = make(map[int]bool, len(payload.Neighborhood))
			for _, id := range payload.Neighborhood {
				nbhd[id] = true
			}
		}
	}
	if nbhd == nil {
		t.Fatal("no rematch_round event for epoch 1")
	}
	for id, p := range cur {
		was, survived := prev[id]
		if !survived || nbhd[id] {
			continue
		}
		if was != p {
			t.Fatalf("agent %d outside neighborhood changed %d -> %d", id, was, p)
		}
	}
}

func TestStreamEpochAuditClean(t *testing.T) {
	for _, shards := range []int{1, 4} {
		f := streamFramework(t, 0, shards, 23)
		for e, churn := range streamTrace(f.Catalog()) {
			if _, err := f.StreamEpoch(churn); err != nil {
				t.Fatalf("shards=%d epoch %d: %v", shards, e, err)
			}
		}
		rep := audit.Replay(f.Telemetry().EventRing().Events(), audit.Options{})
		if !rep.OK() {
			for _, v := range rep.Violations {
				t.Errorf("shards=%d: %s: %s", shards, v.Invariant, v.Detail)
			}
			t.Fatalf("shards=%d: churn-stream audit found %d violations", shards, len(rep.Violations))
		}
		if rep.Epochs != 4 {
			t.Fatalf("shards=%d: audited %d epochs, want 4", shards, rep.Epochs)
		}
	}
}

func TestStreamEpochDeterministicAcrossWorkers(t *testing.T) {
	type run struct {
		reports [][]byte
		events  []telemetry.Event
	}
	runs := make([]run, 0, 2)
	for _, workers := range []int{1, 8} {
		f := streamFramework(t, workers, 4, 42)
		var r run
		for e, churn := range streamTrace(f.Catalog()) {
			rep, err := f.StreamEpoch(churn)
			if err != nil {
				t.Fatalf("workers=%d epoch %d: %v", workers, e, err)
			}
			b, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			r.reports = append(r.reports, b)
		}
		for _, ev := range f.Telemetry().EventRing().Events() {
			r.events = append(r.events, ev.Canon())
		}
		runs = append(runs, r)
	}
	for e := range runs[0].reports {
		if !bytes.Equal(runs[0].reports[e], runs[1].reports[e]) {
			t.Fatalf("epoch %d report differs between 1 and 8 workers", e)
		}
	}
	if len(runs[0].events) != len(runs[1].events) {
		t.Fatalf("event counts differ: %d vs %d", len(runs[0].events), len(runs[1].events))
	}
	for i := range runs[0].events {
		if runs[0].events[i] != runs[1].events[i] {
			t.Fatalf("event %d differs:\n  1 worker:  %+v\n  8 workers: %+v",
				i, runs[0].events[i], runs[1].events[i])
		}
	}
}

func TestStreamEpochChurnErrors(t *testing.T) {
	f := streamFramework(t, 0, 1, 5)
	if _, err := f.StreamEpoch(Churn{Join: []workload.Job{{Name: "no-such-job"}}}); err == nil {
		t.Fatal("off-catalog join accepted")
	}
	if _, err := f.StreamEpoch(Churn{Depart: []int{99}}); err == nil {
		t.Fatal("unknown departure accepted")
	}
	if _, err := f.StreamEpoch(Churn{}); err == nil {
		t.Fatal("empty-population epoch accepted")
	}
	// The failed churns must not have corrupted the ledger.
	if _, err := f.StreamEpoch(Churn{Join: f.Catalog()[:4]}); err != nil {
		t.Fatalf("recovery epoch: %v", err)
	}
}

// TestStreamReportOwnsItsSlices pins where a streaming report's lifetime
// contract stops. Population.Jobs views the engine's live roster, which
// the next StreamEpoch rewrites in place; AgentIDs, Match, both penalty
// slices and the rows and matching Recommendations reads are the
// report's own, and later epochs, repairs and a full clear, leave an
// earlier report's as they were.
func TestStreamReportOwnsItsSlices(t *testing.T) {
	for _, shards := range []int{1, 4} {
		f := streamFramework(t, 0, shards, 11)
		trace := streamTrace(f.Catalog())
		first, err := f.StreamEpoch(trace[0])
		if err != nil {
			t.Fatal(err)
		}
		ids, match := slices.Clone(first.AgentIDs), slices.Clone(first.Match)
		predicted, realized := slices.Clone(first.PredictedPenalty), slices.Clone(first.TruePenalty)
		recs := first.Recommendations()
		for e, churn := range trace[1:] {
			if _, err := f.StreamEpoch(churn); err != nil {
				t.Fatalf("shards=%d epoch %d: %v", shards, e+1, err)
			}
		}
		if !slices.Equal(first.AgentIDs, ids) || !slices.Equal(first.Match, match) ||
			!slices.Equal(first.PredictedPenalty, predicted) || !slices.Equal(first.TruePenalty, realized) ||
			!reflect.DeepEqual(first.Recommendations(), recs) {
			t.Fatalf("shards=%d: later epochs rewrote an earlier report's own slices", shards)
		}
	}
}
