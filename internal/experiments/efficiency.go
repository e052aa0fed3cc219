package experiments

import (
	"fmt"

	"cooper/internal/cluster"
	"cooper/internal/energy"
	"cooper/internal/game"
	"cooper/internal/matching"
	"cooper/internal/policy"
	"cooper/internal/stats"
)

// EfficiencyRow is one policy's energy and incentive outcome.
type EfficiencyRow struct {
	Policy string
	// EnergyPerJobJ is the energy per completed job under the policy's
	// colocations.
	EnergyPerJobJ float64
	// SavingsPct is the energy-per-job saving versus running every job
	// alone on its own machine.
	SavingsPct float64
	// SharingIncentivePct is the share of agents doing at least as well
	// as with a uniformly random co-runner.
	SharingIncentivePct float64
	MeanPenalty         float64
}

// EfficiencyStudy quantifies the paper's motivation (colocation amortizes
// server power over more work) and the fair-division sharing-incentive
// property, for every policy on one uniform population.
func (l *Lab) EfficiencyStudy(n int, seed int64) ([]EfficiencyRow, error) {
	pop := l.uniformPopulation(n, seed)
	server := energy.DefaultServer()

	// Solo baseline: every job on its own machine.
	soloCluster, err := cluster.New(n, l.Machine)
	if err != nil {
		return nil, err
	}
	var soloBatch []cluster.Assignment
	for i, j := range pop.Jobs {
		soloBatch = append(soloBatch, cluster.Assignment{AgentA: i, AgentB: -1, JobA: j})
	}
	soloResults := soloCluster.Dispatch(soloBatch)

	var out []EfficiencyRow
	for _, p := range policy.All() {
		round, err := l.clear(l.Dense, p, pop.Jobs, stats.NewRand(seed+11))
		if err != nil {
			return nil, err
		}
		match := round.Match
		machines := 0
		var batch []cluster.Assignment
		for i, j := range match {
			switch {
			case j == matching.Unmatched:
				machines++
				batch = append(batch, cluster.Assignment{
					AgentA: i, AgentB: -1, JobA: pop.Jobs[i],
				})
			case i < j:
				machines++
				batch = append(batch, cluster.Assignment{
					AgentA: i, AgentB: j, JobA: pop.Jobs[i], JobB: pop.Jobs[j],
				})
			}
		}
		cl, err := cluster.New(machines, l.Machine)
		if err != nil {
			return nil, err
		}
		results := cl.Dispatch(batch)
		cmp, err := energy.Compare(server, machines, results, n, soloResults)
		if err != nil {
			return nil, err
		}
		si, err := game.SharingIncentive(match, l.oracle(round.JobIdx))
		if err != nil {
			return nil, err
		}
		_, mean := round.Penalties()
		out = append(out, EfficiencyRow{
			Policy:              p.Name(),
			EnergyPerJobJ:       cmp.Colocated.EnergyPerJobJ,
			SavingsPct:          cmp.SavingsPct,
			SharingIncentivePct: si * 100,
			MeanPenalty:         mean,
		})
	}
	return out, nil
}

// RenderEfficiency formats the study.
func RenderEfficiency(rows []EfficiencyRow) string {
	out := "Efficiency: energy per job and sharing incentives by policy\n"
	out += fmt.Sprintf("  %-7s %-14s %-10s %-18s %-10s\n",
		"policy", "energy/job", "savings", "sharing incentive", "penalty")
	for _, r := range rows {
		out += fmt.Sprintf("  %-7s %-14s %-10s %-18s %-10.4f\n",
			r.Policy,
			fmt.Sprintf("%.0f kJ", r.EnergyPerJobJ/1000),
			fmt.Sprintf("%.0f%%", r.SavingsPct),
			fmt.Sprintf("%.0f%%", r.SharingIncentivePct),
			r.MeanPenalty)
	}
	out += "  savings are versus one job per machine — the paper's motivating waste\n"
	return out
}
