// Strategic: show why fairness matters for system integrity. Colocate a
// population with the performance-centric Greedy policy, let the agents
// exchange messages, and watch how many would break away; then sweep the
// break-away threshold alpha and compare against Stable Marriage Random.
//
//	go run ./examples/strategic
package main

import (
	"fmt"
	"log"

	"cooper"
)

func main() {
	const agents = 200
	alphas := []float64{0, 0.01, 0.02, 0.03, 0.04, 0.05}

	fmt.Println("agents recommending break-away (lower = more stable system)")
	fmt.Printf("%-8s", "policy")
	for _, a := range alphas {
		fmt.Printf("  alpha=%.0f%%", a*100)
	}
	fmt.Println()

	for _, pol := range []cooper.Policy{cooper.Greedy(), cooper.Complementary(), cooper.SMR()} {
		fmt.Printf("%-8s", pol.Name())
		for _, alpha := range alphas {
			f, err := cooper.New(
				cooper.WithPolicy(pol),
				cooper.WithOracle(),
				cooper.WithAlpha(alpha),
				cooper.WithSeed(11), // same seed: same population for every policy
			)
			if err != nil {
				log.Fatal(err)
			}
			pop := f.SamplePopulation(agents, cooper.Uniform())
			rep, err := f.RunEpoch(pop)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %9d", rep.BreakAwayCount())
		}
		fmt.Println()
	}

	// Zoom in: under Greedy, who is most dissatisfied, and with whom
	// would they rather share a machine?
	f, err := cooper.New(cooper.WithPolicy(cooper.Greedy()), cooper.WithOracle(), cooper.WithSeed(11))
	if err != nil {
		log.Fatal(err)
	}
	pop := f.SamplePopulation(agents, cooper.Uniform())
	rep, err := f.RunEpoch(pop)
	if err != nil {
		log.Fatal(err)
	}
	// An agent's best blocking partner is the one it suffers least next
	// to, lowest index on ties. The blocking pairs are read over the
	// agents' own penalty rows: their predicted job-level penalties,
	// looked up by job.
	row := make(map[string]int, len(f.Catalog()))
	for i, job := range f.Catalog() {
		row[job.Name] = i
	}
	predicted := f.PredictedPenalties()
	penalties := make([][]float64, agents)
	for i := range penalties {
		penalties[i] = make([]float64, agents)
		for j := range penalties[i] {
			penalties[i][j] = predicted[row[pop.Jobs[i].Name]][row[pop.Jobs[j].Name]]
		}
	}
	best := make(map[int]int) // agent → its best blocking partner
	prefer := func(i, j int) {
		if b, ok := best[i]; !ok || penalties[i][j] < penalties[i][b] || penalties[i][j] == penalties[i][b] && j < b {
			best[i] = j
		}
	}
	for _, pair := range cooper.BlockingPairs(rep.Match, penalties, 0) {
		prefer(pair[0], pair[1])
		prefer(pair[1], pair[0])
	}

	fmt.Println("\nmost dissatisfied agents under Greedy:")
	shown := 0
	for _, rec := range rep.Recommendations() {
		if rec.Action != cooper.BreakAway || shown >= 5 {
			continue
		}
		partner, other := rep.Match[rec.AgentID], best[rec.AgentID]
		fmt.Printf("  agent %3d (%-11s) paired with %-11s penalty %.3f — "+
			"would gain %.3f with agent %d (%s)\n",
			rec.AgentID, pop.Jobs[rec.AgentID].Name, pop.Jobs[partner].Name,
			rep.TruePenalty[rec.AgentID], rec.ExpectedGain, other, pop.Jobs[other].Name)
		shown++
	}
	fmt.Printf("\n%d of %d agents would leave a Greedy-managed system at alpha=0\n",
		rep.BreakAwayCount(), agents)
	fmt.Println("stable matching removes that incentive — that is Cooper's case for fairness")
}
