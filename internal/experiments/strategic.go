package experiments

import (
	"fmt"
	"sort"

	"cooper/internal/matching"
	"cooper/internal/policy"
	"cooper/internal/profiler"
	"cooper/internal/stats"
)

// ManipulationPoint is one misreporting strategy's outcome for the
// manipulating agent.
type ManipulationPoint struct {
	Strategy string
	// TruePenalty is the penalty the manipulator actually suffers under
	// the matching computed from its (possibly false) report.
	TruePenalty float64
	// Gain is truthful penalty minus this strategy's penalty (positive =
	// the lie paid off).
	Gain float64
}

// ManipulationResult is the strategic-behavior study: can a single agent
// gain by misreporting its preferences to the coordinator? The paper
// motivates Cooper by the need to "guard against strategic behavior";
// deferred acceptance is strategy-proof for proposers, and this study
// measures what the game's structure leaves on the table for liars.
type ManipulationResult struct {
	Agent     int
	AgentJob  string
	Truthful  float64 // penalty when reporting honestly
	Points    []ManipulationPoint
	BestGain  float64 // the most any tested lie gained
	WorstLoss float64 // the most any tested lie cost
}

// Manipulation runs the study: fix a population and an SMR-style random
// partition, then let one agent misreport its penalty row under several
// canonical strategies (inverting preferences, claiming indifference,
// exaggerating its sensitivity, understating it) and measure the true
// penalty each report earns it.
func (l *Lab) Manipulation(n int, agentIdx int, seed int64) (*ManipulationResult, error) {
	pop := l.uniformPopulation(n, seed)
	if agentIdx < 0 || agentIdx >= n {
		return nil, fmt.Errorf("experiments: agent %d outside population of %d", agentIdx, n)
	}
	// The manipulator's report is a row no catalog job has, so this study
	// alone matches over an agent-level matrix.
	trueD, err := profiler.ExpandToAgents(l.Dense, l.Catalog, pop)
	if err != nil {
		return nil, err
	}
	smr := policy.StableMarriageRandom{}
	// The honest matrix is ranked once; a report differs from it in the
	// manipulator's row alone, so only that row of its table is ranked.
	honest := matching.Dense(trueD).WithRanks()

	evaluate := func(reported matching.Penalties) (float64, error) {
		// Same seed: the random partition is identical across reports, so
		// only the manipulation differs.
		match, err := smr.AssignClasses(reported, policy.Context{
			Rand: stats.NewRand(seed + 7),
		})
		if err != nil {
			return 0, err
		}
		if match[agentIdx] == matching.Unmatched {
			return 0, nil
		}
		return trueD[agentIdx][match[agentIdx]], nil
	}

	// withRow shares every honest row and copies only the manipulator's.
	withRow := func(mutate func(row []float64)) matching.Penalties {
		reported := honest
		reported.Matrix = append([][]float64(nil), trueD...)
		reported.Matrix[agentIdx] = append([]float64(nil), trueD[agentIdx]...)
		mutate(reported.Matrix[agentIdx])
		return reported.Rerank(agentIdx)
	}

	truthful, err := evaluate(honest)
	if err != nil {
		return nil, err
	}

	strategies := []struct {
		name   string
		mutate func(row []float64)
	}{
		{"invert", func(row []float64) {
			// Reverse the preference order: claim to love what it hates.
			max := stats.Max(row)
			for j := range row {
				if j != agentIdx {
					row[j] = max - row[j]
				}
			}
		}},
		{"indifferent", func(row []float64) {
			for j := range row {
				if j != agentIdx {
					row[j] = 0.05
				}
			}
		}},
		{"exaggerate", func(row []float64) {
			for j := range row {
				row[j] *= 5
			}
		}},
		{"understate", func(row []float64) {
			for j := range row {
				row[j] *= 0.2
			}
		}},
		{"truncate", func(row []float64) {
			// Claim unbearable penalties with everyone except the three
			// co-runners it truly prefers.
			type cand struct {
				j int
				d float64
			}
			var cands []cand
			for j := range row {
				if j != agentIdx {
					cands = append(cands, cand{j, row[j]})
				}
			}
			sort.Slice(cands, func(a, b int) bool { return cands[a].d < cands[b].d })
			for k := 3; k < len(cands); k++ {
				row[cands[k].j] = 1
			}
		}},
	}

	res := &ManipulationResult{
		Agent:    agentIdx,
		AgentJob: pop.Jobs[agentIdx].Name,
		Truthful: truthful,
	}
	for _, s := range strategies {
		pen, err := evaluate(withRow(s.mutate))
		if err != nil {
			return nil, err
		}
		pt := ManipulationPoint{
			Strategy:    s.name,
			TruePenalty: pen,
			Gain:        truthful - pen,
		}
		res.Points = append(res.Points, pt)
		if pt.Gain > res.BestGain {
			res.BestGain = pt.Gain
		}
		if -pt.Gain > res.WorstLoss {
			res.WorstLoss = -pt.Gain
		}
	}
	return res, nil
}

// ChurnPoint is one epoch of the churn study.
type ChurnPoint struct {
	Epoch       int
	Replaced    int // agents that departed and were replaced this epoch
	PairsKept   int // pairs identical to the previous epoch's matching
	PairsTotal  int
	MeanPenalty float64
	BlockingPct float64 // agents in blocking pairs / population
}

// Churn runs successive epochs over a population in which a fraction of
// agents departs each epoch and is replaced by fresh arrivals, measuring
// how much of the matching survives — the re-matching stability of the
// colocation game under the paper's periodic scheduling.
func (l *Lab) Churn(n, epochs int, churnFraction float64, seed int64) ([]ChurnPoint, error) {
	if churnFraction < 0 || churnFraction > 1 {
		return nil, fmt.Errorf("experiments: churn fraction %v outside [0,1]", churnFraction)
	}
	r := stats.NewRand(seed)
	ordered := l.Catalog
	pop := l.uniformPopulation(n, seed+1)
	smr := policy.StableMarriageRandom{}

	var prev matching.Matching
	var out []ChurnPoint
	for e := 0; e < epochs; e++ {
		replaced := 0
		if e > 0 {
			for i := range pop.Jobs {
				if r.Float64() < churnFraction {
					pop.Jobs[i] = ordered[r.Intn(len(ordered))]
					replaced++
				}
			}
		}
		round, err := l.clear(l.Dense, smr, pop.Jobs, r)
		if err != nil {
			return nil, err
		}
		match := round.Match
		point := ChurnPoint{Epoch: e, Replaced: replaced}
		for i, j := range match {
			if j == matching.Unmatched || i > j {
				continue
			}
			point.PairsTotal++
			if prev != nil && prev[i] == j {
				point.PairsKept++
			}
		}
		_, point.MeanPenalty = round.Penalties()
		agents, _ := l.breakAways(round, 0.02)
		point.BlockingPct = 100 * float64(agents) / float64(n)
		out = append(out, point)
		prev = match
	}
	return out, nil
}

// RenderStrategic formats the manipulation and churn studies.
func RenderStrategic(m *ManipulationResult, churn []ChurnPoint) string {
	out := fmt.Sprintf("Strategic behavior: agent %d (%s) misreporting its preferences (SMR)\n",
		m.Agent, m.AgentJob)
	out += fmt.Sprintf("  truthful penalty %.4f\n", m.Truthful)
	for _, p := range m.Points {
		out += fmt.Sprintf("  %-12s -> penalty %.4f (gain %+.4f)\n",
			p.Strategy, p.TruePenalty, p.Gain)
	}
	out += fmt.Sprintf("  best gain from lying: %+.4f; worst self-inflicted loss: %.4f\n\n",
		m.BestGain, m.WorstLoss)

	out += "Churn: re-matching stability under agent turnover (SMR)\n"
	out += fmt.Sprintf("  %-6s %-9s %-10s %-12s %-10s\n",
		"epoch", "replaced", "kept", "penalty", "blocking")
	for _, c := range churn {
		kept := "-"
		if c.Epoch > 0 {
			kept = fmt.Sprintf("%d/%d", c.PairsKept, c.PairsTotal)
		}
		out += fmt.Sprintf("  %-6d %-9d %-10s %-12.4f %-10s\n",
			c.Epoch, c.Replaced, kept, c.MeanPenalty,
			fmt.Sprintf("%.1f%%", c.BlockingPct))
	}
	return out
}
