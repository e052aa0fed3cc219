package netproto

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"cooper/internal/core"
	"cooper/internal/matching"
	"cooper/internal/policy"
	"cooper/internal/workload"
)

// Cross-transport equivalence: the in-process framework and the wire
// coordinator are two drivers of one market engine, so the same seed,
// penalty matrix and roster — in the same order — must yield the same
// matching (by stable partner ID) and the same predicted penalties,
// whichever transport carried them.

const equivSeed = 29

func equivFramework(t *testing.T, shards int, rematch bool) *core.Framework {
	t.Helper()
	f, err := core.NewFramework(context.Background(), core.Config{
		Seed:     equivSeed,
		Market:   core.MarketConfig{Policy: policy.StableMarriageRandom{}, Shards: shards, Rematch: rematch},
		Pipeline: core.PipelineConfig{Oracle: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// equivJobs is a fixed roster that mixes the catalog's classes.
func equivJobs(catalog []workload.Job, n int) []workload.Job {
	jobs := make([]workload.Job, n)
	for i := range jobs {
		jobs[i] = catalog[(i*7)%len(catalog)]
	}
	return jobs
}

// equivServe starts a loopback server over the framework's catalog and
// matrix with the framework's seed and market knobs.
func equivServe(t *testing.T, f *core.Framework, n, shards int, rematch bool) (string, chan error) {
	t.Helper()
	srv := &Server{
		Epoch: n, Policy: policy.StableMarriageRandom{}, Seed: equivSeed,
		Catalog: f.Catalog(), Penalties: f.PredictedPenalties(),
		Shards: shards, Rematch: rematch, ReadTimeout: 300 * time.Millisecond,
	}
	addrCh := make(chan string, 1)
	srvErr := make(chan error, 1)
	go func() { srvErr <- srv.Serve("127.0.0.1:0", func(a string) { addrCh <- a }) }()
	return <-addrCh, srvErr
}

// standing is what one agent ends an epoch holding.
type standing struct {
	partner int
	penalty float64
}

// settle plays every agent through the rest of its epoch — assessing
// first[i] when round 0 was already read — and returns each agent's last
// assignment by wire ID.
func settle(t *testing.T, agents []*rawAgent, first []Message) map[int]standing {
	t.Helper()
	last := make([]Message, len(agents))
	var wg sync.WaitGroup
	for i, a := range agents {
		wg.Add(1)
		go func(i int, a *rawAgent) {
			defer wg.Done()
			if first != nil && first[i].Type == "assignment" {
				last[i] = first[i]
				a.assess(first[i])
			}
			for {
				msg := a.read()
				if msg.Type != "assignment" {
					return
				}
				last[i] = msg
				a.assess(msg)
			}
		}(i, a)
	}
	wg.Wait()
	out := make(map[int]standing, len(agents))
	for i, a := range agents {
		out[a.id] = standing{last[i].PartnerID, last[i].PredictedPenalty}
	}
	return out
}

// reported is the same view of an in-process epoch report.
func reported(rep *core.EpochReport) map[int]standing {
	id := func(i int) int {
		if rep.AgentIDs == nil {
			return i
		}
		return rep.AgentIDs[i]
	}
	out := make(map[int]standing, len(rep.Match))
	for i, j := range rep.Match {
		s := standing{partner: -1, penalty: rep.PredictedPenalty[i]}
		if j != matching.Unmatched {
			s.partner = id(j)
		}
		out[id(i)] = s
	}
	return out
}

func compareStandings(t *testing.T, inProcess, wire map[int]standing) {
	t.Helper()
	if len(inProcess) != len(wire) {
		t.Fatalf("in-process epoch has %d agents, wire epoch %d", len(inProcess), len(wire))
	}
	for id, want := range inProcess {
		if got, ok := wire[id]; !ok || got != want {
			t.Errorf("agent %d: in process %+v, over the wire %+v", id, want, got)
		}
	}
}

func TestBatchEpochMatchesAcrossTransports(t *testing.T) {
	const n = 24
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			f := equivFramework(t, shards, false)
			jobs := equivJobs(f.Catalog(), n)
			rep, err := f.RunEpoch(workload.Population{Jobs: jobs})
			if err != nil {
				t.Fatal(err)
			}

			addr, srvErr := equivServe(t, f, n, shards, false)
			agents := make([]*rawAgent, n)
			for i, job := range jobs {
				// Sequential dials: wire IDs follow roster order.
				agents[i] = rawDial(t, addr, job.Name)
				defer agents[i].conn.Close()
			}
			wire := settle(t, agents, nil)
			if err := <-srvErr; err != nil {
				t.Fatalf("server: %v", err)
			}
			compareStandings(t, reported(rep), wire)
		})
	}
}

// TestStreamRoundMatchesAcrossTransports plays one churn round — agent
// `leaver` departs, one agent joins — as a second StreamEpoch in process
// and as a mid-epoch repair round on a Rematch server.
func TestStreamRoundMatchesAcrossTransports(t *testing.T) {
	const n, leaver = 24, 5
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			f := equivFramework(t, shards, true)
			jobs := equivJobs(f.Catalog(), n)
			joiner := f.Catalog()[3]
			if _, err := f.StreamEpoch(core.Churn{Join: jobs}); err != nil {
				t.Fatal(err)
			}
			rep, err := f.StreamEpoch(core.Churn{Join: []workload.Job{joiner}, Depart: []int{leaver}})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Rematch.Mode != "repair" {
				t.Fatalf("in-process churn round ran %q, want a repair", rep.Rematch.Mode)
			}

			addr, srvErr := equivServe(t, f, n, shards, true)
			agents := make([]*rawAgent, n)
			first := make([]Message, n)
			for i, job := range jobs {
				agents[i] = rawDial(t, addr, job.Name)
				defer agents[i].conn.Close()
			}
			for i, a := range agents {
				first[i] = a.read()
			}
			// Round 0 is in flight, the server blocked on its assessments:
			// the leaver dies without answering and the joiner's
			// registration is queued before anyone replies.
			agents[leaver].conn.Close()
			late := rawDial(t, addr, joiner.Name)
			defer late.conn.Close()
			live := append(append([]*rawAgent{}, agents[:leaver]...), agents[leaver+1:]...)
			live = append(live, late)
			firstLive := append(append([]Message{}, first[:leaver]...), first[leaver+1:]...)
			firstLive = append(firstLive, Message{})
			wire := settle(t, live, firstLive)
			if err := <-srvErr; err != nil {
				t.Fatalf("server: %v", err)
			}
			compareStandings(t, reported(rep), wire)
		})
	}
}
