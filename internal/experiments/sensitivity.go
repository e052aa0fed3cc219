package experiments

import (
	"cooper/internal/policy"
	"cooper/internal/stats"
	"cooper/internal/workload"
)

// Mixes returns the paper's four workload-mix densities in Figure 11
// order.
func Mixes() []stats.Sampler {
	return []stats.Sampler{
		stats.Uniform{},
		stats.BetaLow(),
		stats.Gaussian{Mu: 0.5, Sigma: 0.15},
		stats.BetaHigh(),
	}
}

// Figure11Cell is one boxplot of Figure 11: the distribution of per-agent
// penalties under one policy and one workload mix.
type Figure11Cell struct {
	Mix       string
	Policy    string
	Penalties []float64
	Box       stats.Boxplot
	Mean      float64
}

// Figure11 measures penalty distributions for every mix and policy over a
// population of n agents per cell. The paper's Figure 11 whiskers extend
// 3x the IQR, so the boxplots here use that multiplier.
func (l *Lab) Figure11(n int, seed int64) ([]Figure11Cell, error) {
	var out []Figure11Cell
	for mi, mix := range Mixes() {
		popSeed := seed + int64(mi)*101
		pop := workload.Sample(n, l.Catalog, mix, stats.NewRand(popSeed))
		for pi, p := range policy.All() {
			round, err := l.clear(l.Dense, p, pop.Jobs, stats.NewRand(popSeed+int64(pi)+500))
			if err != nil {
				return nil, err
			}
			pens, mean := round.Penalties()
			out = append(out, Figure11Cell{
				Mix:       mix.Name(),
				Policy:    p.Name(),
				Penalties: pens,
				Box:       stats.NewBoxplotWhisker(pens, 3),
				Mean:      mean,
			})
		}
	}
	return out, nil
}

// Figure13Point is one population size of the scalability analysis.
type Figure13Point struct {
	Population int
	// FairnessCorr is the mean Spearman correlation between agents' job
	// bandwidth demands and their penalties, across trials.
	FairnessCorr float64
	// PenaltyStdDev is the mean within-application penalty standard
	// deviation — the paper's "standard deviations shrink with population
	// size" observation.
	PenaltyStdDev float64
	// Penalties pools every agent penalty across trials (for boxplots).
	Penalties []float64
	Trials    int
}

// Figure13 evaluates SMR fairness as the population grows: small systems
// show a weak link between contentiousness and penalty, large systems a
// strong one.
func (l *Lab) Figure13(sizes []int, trials int, seed int64) ([]Figure13Point, error) {
	smr := policy.StableMarriageRandom{}
	var out []Figure13Point
	for _, size := range sizes {
		pt := Figure13Point{Population: size, Trials: trials}
		var corrSum, sdSum float64
		sdCount := 0
		for k := 0; k < trials; k++ {
			popSeed := seed + int64(size)*977 + int64(k)
			pop := l.uniformPopulation(size, popSeed)
			round, err := l.clear(l.Dense, smr, pop.Jobs, stats.NewRand(popSeed+1))
			if err != nil {
				return nil, err
			}
			pens, _ := round.Penalties()
			pt.Penalties = append(pt.Penalties, pens...)
			bw := make([]float64, len(pop.Jobs))
			for i, j := range pop.Jobs {
				bw[i] = j.BandwidthGBps
			}
			corrSum += stats.Spearman(bw, pens)
			// Within-application spread, folded in catalog order so the sum
			// is the same float on every run.
			byApp := make([][]float64, len(l.Catalog))
			for i, row := range round.JobIdx {
				byApp[row] = append(byApp[row], pens[i])
			}
			for _, samples := range byApp {
				if len(samples) >= 2 {
					sdSum += stats.StdDev(samples)
					sdCount++
				}
			}
		}
		pt.FairnessCorr = corrSum / float64(trials)
		if sdCount > 0 {
			pt.PenaltyStdDev = sdSum / float64(sdCount)
		}
		out = append(out, pt)
	}
	return out, nil
}
