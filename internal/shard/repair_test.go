package shard

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"cooper/internal/matching"
	"cooper/internal/policy"
	"cooper/internal/telemetry"
)

// repairFixture clears a sharded market, then invalidates a few agents
// the way a churn round would: departures leave the population (here we
// keep indices stable and just sever their pairs), joiners arrive with
// no assignment.
func repairFixture(t *testing.T, n, shards, workers int) (*Market, *Result, func() ([]int, matching.Matching)) {
	t.Helper()
	jobs, jobIdx := testJobs(n, "a", "b", "c", "d")
	matrix := testMatrix(4)
	mk := &Market{Shards: shards, Workers: workers, Policy: policy.Greedy{}, Seed: 7, SkipRecommendations: true}
	res, err := mk.Clear(context.Background(), jobs, jobIdx, matrix)
	if err != nil {
		t.Fatalf("clear: %v", err)
	}
	dirtyMatch := func() ([]int, matching.Matching) {
		prev := append(matching.Matching(nil), res.Match...)
		var dirty []int
		for _, i := range []int{3, 17, 42} {
			if p := prev[i]; p != matching.Unmatched {
				prev[p] = matching.Unmatched
				dirty = append(dirty, p)
			}
			prev[i] = matching.Unmatched
			dirty = append(dirty, i)
		}
		return dirty, prev
	}
	return mk, res, dirtyMatch
}

func TestRepairOnlyNeighborhoodChanges(t *testing.T) {
	n := 200
	mk, res, fixture := repairFixture(t, n, 4, 0)
	jobs, jobIdx := testJobs(n, "a", "b", "c", "d")
	matrix := testMatrix(4)
	dirty, prev := fixture()

	rep, err := mk.Repair(context.Background(), jobs, jobIdx, matrix, prev, dirty, 8)
	if err != nil {
		t.Fatalf("repair: %v", err)
	}
	if err := rep.Match.Validate(); err != nil {
		t.Fatalf("repaired matching invalid: %v", err)
	}
	inNbhd := make(map[int]bool, len(rep.Neighborhood))
	for _, i := range rep.Neighborhood {
		inNbhd[i] = true
	}
	for _, i := range dirty {
		if !inNbhd[i] {
			t.Fatalf("dirty agent %d outside neighborhood %v", i, rep.Neighborhood)
		}
	}
	if len(rep.Neighborhood) >= n {
		t.Fatalf("neighborhood spans the whole population (%d agents)", len(rep.Neighborhood))
	}
	for i := 0; i < n; i++ {
		if !inNbhd[i] && rep.Match[i] != prev[i] {
			t.Fatalf("agent %d outside neighborhood changed %d -> %d", i, prev[i], rep.Match[i])
		}
	}
	for _, i := range rep.Changed {
		if !inNbhd[i] {
			t.Fatalf("changed agent %d outside neighborhood", i)
		}
		if rep.Match[i] == prev[i] {
			t.Fatalf("agent %d listed as changed but kept partner %d", i, prev[i])
		}
	}
	// The repaired matching should reconnect the severed agents with the
	// originally cleared pairs available again.
	if reflect.DeepEqual(rep.Match, prev) {
		t.Fatal("repair left every dirty agent solo")
	}
	_ = res
}

// TestRepairDeterministicAcrossWorkers holds a randomized policy's
// repair to one result at any worker count, whether Repair builds its
// working memory or reuses a RepairScratch an earlier repair on another
// seed left behind: reseeded in place, its RNGs draw the fresh streams.
func TestRepairDeterministicAcrossWorkers(t *testing.T) {
	n := 300
	jobs, jobIdx := testJobs(n, "a", "b", "c", "d")
	matrix := testMatrix(4)
	var base *RepairResult
	used := new(RepairScratch)
	for _, run := range []struct {
		workers int
		repairs *RepairScratch
	}{{1, nil}, {8, nil}, {1, used}, {8, used}} {
		workers := run.workers
		mk, _, fixture := repairFixture(t, n, 6, workers)
		mk.Policy, mk.Repairs = policy.StableMarriageRandom{}, run.repairs
		dirty, prev := fixture()
		if run.repairs != nil {
			other := *mk
			other.Seed++
			if _, err := other.Repair(context.Background(), jobs, jobIdx, matrix, prev, dirty, 8); err != nil {
				t.Fatal(err)
			}
		}
		rep, err := mk.Repair(context.Background(), jobs, jobIdx, matrix, prev, dirty, 8)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if base == nil {
			base = rep
			continue
		}
		if !reflect.DeepEqual(base.Match, rep.Match) {
			t.Fatalf("matching differs between worker counts")
		}
		if !reflect.DeepEqual(base.Neighborhood, rep.Neighborhood) || !reflect.DeepEqual(base.Changed, rep.Changed) {
			t.Fatalf("repair metadata differs between worker counts")
		}
		if base.FallbackPairs != rep.FallbackPairs {
			t.Fatalf("fallback pairs differ: %d vs %d", base.FallbackPairs, rep.FallbackPairs)
		}
	}
}

func TestRepairCrossShardFallback(t *testing.T) {
	// Two shards, one dirty agent each, topK=0 so each shard's
	// neighborhood is just its dirty singleton: the shard-local repair
	// cannot pair them (k < 2), so only the cross-shard fallback can.
	n := 40
	jobs, jobIdx := testJobs(n, "a", "b")
	matrix := testMatrix(2)
	mk := &Market{Shards: 2, Policy: policy.Greedy{}, Seed: 7, SkipRecommendations: true}
	res, err := mk.Clear(context.Background(), jobs, jobIdx, matrix)
	if err != nil {
		t.Fatalf("clear: %v", err)
	}
	// Pick one matched agent per shard and sever both pairs fully so the
	// four endpoints are dirty; neighborhoods stay singletons under
	// topK=... 0 is clamped to the default, so use 1 with isolated pool.
	prev := append(matching.Matching(nil), res.Match...)
	var dirty []int
	for s := 0; s < 2; s++ {
		severed := false
		for i := 0; i < n && !severed; i++ {
			if res.ShardOf[i] == s && prev[i] != matching.Unmatched {
				p := prev[i]
				prev[i], prev[p] = matching.Unmatched, matching.Unmatched
				dirty = append(dirty, i, p)
				severed = true
			}
		}
		if !severed {
			t.Skipf("partition left shard %d with no matched agent", s)
		}
	}
	rep, err := mk.Repair(context.Background(), jobs, jobIdx, matrix, prev, dirty, 2)
	if err != nil {
		t.Fatalf("repair: %v", err)
	}
	if err := rep.Match.Validate(); err != nil {
		t.Fatalf("repaired matching invalid: %v", err)
	}
	solo := 0
	for _, i := range dirty {
		if rep.Match[i] == matching.Unmatched {
			solo++
		}
	}
	// With four dirty endpoints and shard-local repair available the
	// repair should leave at most one agent per parity stranded; the
	// fallback pairs cross-shard leftovers disjointly.
	if solo > 2 {
		t.Fatalf("%d of %d dirty agents left solo (fallback=%d)", solo, len(dirty), rep.FallbackPairs)
	}
}

func TestRepairValidation(t *testing.T) {
	n := 20
	jobs, jobIdx := testJobs(n, "a", "b")
	matrix := testMatrix(2)
	mk := &Market{Shards: 2, Policy: policy.Greedy{}, Seed: 1, SkipRecommendations: true}
	res, err := mk.Clear(context.Background(), jobs, jobIdx, matrix)
	if err != nil {
		t.Fatalf("clear: %v", err)
	}
	ctx := context.Background()
	if _, err := mk.Repair(ctx, jobs, jobIdx, matrix, res.Match[:n-1], nil, 4); err == nil {
		t.Fatal("short prev accepted")
	}
	if _, err := mk.Repair(ctx, jobs, jobIdx, matrix, res.Match, []int{n + 3}, 4); err == nil {
		t.Fatal("out-of-range dirty agent accepted")
	}
	var matched int
	for i, p := range res.Match {
		if p != matching.Unmatched {
			matched = i
			break
		}
	}
	if _, err := mk.Repair(ctx, jobs, jobIdx, matrix, res.Match, []int{matched}, 4); err == nil {
		t.Fatal("dirty agent with live assignment accepted")
	}
	bad := &Market{Shards: 2, Seed: 1}
	if _, err := bad.Repair(ctx, jobs, jobIdx, matrix, res.Match, nil, 4); err == nil {
		t.Fatal("policy-less market accepted")
	}
}

// TestRepairShardSpanIDsStableAcrossRuns pins the repair-shard spans'
// identities: the same seed must map every shard to the same span ID on
// every run at Workers=8, whichever worker happens to open its span
// first. (Counter-allocated IDs produced a second mapping within a few
// hundred runs; keyed IDs cannot.)
func TestRepairShardSpanIDsStableAcrossRuns(t *testing.T) {
	n := 300
	jobs, jobIdx := testJobs(n, "a", "b", "c", "d")
	matrix := testMatrix(4)
	spanIDs := func() map[string]string {
		mk, _, fixture := repairFixture(t, n, 6, 8)
		tel := telemetry.NewSeeded(42)
		mk.Tel, mk.Span = tel, tel.Phase(nil, "match")
		dirty, prev := fixture()
		if _, err := mk.Repair(context.Background(), jobs, jobIdx, matrix, prev, dirty, 8); err != nil {
			t.Fatalf("repair: %v", err)
		}
		ids := make(map[string]string)
		for _, sp := range mk.Span.Snapshot().Children {
			if sp.Name != "repair-shard" {
				continue
			}
			for _, a := range sp.Attrs {
				if a.Key == "shard" {
					ids[fmt.Sprint(a.Value)] = sp.Span
				}
			}
		}
		if len(ids) < 2 {
			t.Fatalf("only %d repair-shard spans: the fixture must dirty several shards", len(ids))
		}
		return ids
	}
	want := spanIDs()
	for run := 1; run < 100; run++ {
		if got := spanIDs(); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: shard→span-ID map %v, first run had %v", run, got, want)
		}
	}
}
