package cooper

import (
	"fmt"
	"testing"

	"cooper/internal/audit"
	"cooper/internal/matching"
)

// TestReportCountsEveryBlockingPair pins the epoch report's blocking-pair
// count to the paper's definition, in every market mode: batch and
// streaming epochs at 1, 8 and 32 shards over 2,000 agents at α = 0. Each
// epoch's count must equal the pairwise CountBlockingPairs over the
// report's own matching, and the auditor, replaying the run's event log
// as it is recorded, must derive the same count epoch by epoch. A sharded
// or streaming report that sees only part of the market undercounts.
func TestReportCountsEveryBlockingPair(t *testing.T) {
	const agents = 2000
	for _, mode := range []string{"batch", "stream"} {
		for _, shards := range []int{1, 8, 32} {
			t.Run(fmt.Sprintf("%s/shards=%d", mode, shards), func(t *testing.T) {
				tel := NewTelemetry()
				auditor := audit.New(audit.Options{})
				tel.Events.AddObserver(auditor.Feed)
				opts := []Option{WithOracle(), WithSeed(1), WithAlpha(0), WithShards(shards), WithTelemetry(tel)}
				if mode == "stream" {
					opts = append(opts, WithRematch())
				}
				f, err := New(opts...)
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				row := make(map[string]int, len(f.Catalog()))
				for i, job := range f.Catalog() {
					row[job.Name] = i
				}

				audited := 0
				var ids []int
				for epoch := 0; epoch < 3; epoch++ {
					var rep *EpochReport
					if mode == "batch" {
						rep, err = f.RunEpoch(f.SamplePopulation(agents, Uniform()))
					} else {
						c := Churn{Join: f.SamplePopulation(agents, Uniform()).Jobs}
						if epoch > 0 {
							c = Churn{Join: f.SamplePopulation(agents/100, Uniform()).Jobs, Depart: ids[:agents/100]}
						}
						rep, err = f.StreamEpoch(c)
						ids = rep.AgentIDs
					}
					if err != nil {
						t.Fatal(err)
					}
					rows := make([]int, len(rep.Population.Jobs))
					for i, job := range rep.Population.Jobs {
						rows[i] = row[job.Name]
					}
					want := matching.Penalties{Matrix: f.PredictedPenalties(), Class: rows}.CountBlockingPairs(rep.Match, 0)
					got := rep.BlockingPairCount
					ar := auditor.Finish()
					if !ar.OK() || len(ar.Warnings) > 0 {
						t.Fatalf("epoch %d: audit found %v, warned %v", epoch, ar.Violations, ar.Warnings)
					}
					if got != want || ar.BlockingPairs-audited != want {
						t.Fatalf("epoch %d: report counts %d blocking pairs, the auditor %d, CountBlockingPairs %d",
							epoch, got, ar.BlockingPairs-audited, want)
					}
					audited = ar.BlockingPairs
				}
			})
		}
	}
}
