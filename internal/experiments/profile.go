package experiments

import (
	"fmt"

	"cooper/internal/policy"
	"cooper/internal/stats"
	"cooper/internal/workload"
)

// Table1Row is one catalog entry of the paper's Table I, with both the
// paper's published bandwidth and the bandwidth measured standalone on the
// simulated machine.
type Table1Row struct {
	ID           int
	Name         string
	Application  string
	Dataset      string
	Suite        workload.Suite
	PaperGBps    float64
	MeasuredGBps float64
}

// Table1 reproduces the paper's Table I on the simulated machine.
func (l *Lab) Table1() []Table1Row {
	rows := make([]Table1Row, 0, len(l.Catalog))
	for _, j := range l.Catalog {
		rows = append(rows, Table1Row{
			ID:           j.ID,
			Name:         j.Name,
			Application:  j.Application,
			Dataset:      j.Dataset,
			Suite:        j.Suite,
			PaperGBps:    j.BandwidthGBps,
			MeasuredGBps: l.Machine.Solo(j.Model).BandwidthBytes / 1e9,
		})
	}
	return rows
}

// AppPenalty is one bar of the paper's Figures 1 and 7: a reported
// application's bandwidth demand and its mean colocation penalty under
// some policy, averaged over the colocations that include it.
type AppPenalty struct {
	App           string
	BandwidthGBps float64
	MeanPenalty   float64
	StdDev        float64
	Samples       int
}

// PenaltyProfile colocates a population of n uniformly sampled jobs with
// policy p and reports, for each of the paper's eleven reported
// applications (ordered by increasing contentiousness), the mean penalty
// suffered by agents running it — the data behind Figures 1 and 7.
func (l *Lab) PenaltyProfile(p policy.Policy, n int, seed int64) ([]AppPenalty, error) {
	pop := l.uniformPopulation(n, seed)
	round, err := l.clear(l.Dense, p, pop.Jobs, stats.NewRand(seed+1))
	if err != nil {
		return nil, err
	}
	pens, _ := round.Penalties()
	byApp := make(map[string][]float64)
	for i, j := range pop.Jobs {
		byApp[j.Name] = append(byApp[j.Name], pens[i])
	}
	var out []AppPenalty
	for _, name := range workload.ReportedApps {
		job, err := l.mustFind(name)
		if err != nil {
			return nil, err
		}
		samples := byApp[name]
		ap := AppPenalty{
			App:           name,
			BandwidthGBps: job.BandwidthGBps,
			Samples:       len(samples),
		}
		if len(samples) > 0 {
			ap.MeanPenalty = stats.Mean(samples)
			ap.StdDev = stats.StdDev(samples)
		}
		out = append(out, ap)
	}
	return out, nil
}

// Figure7Result holds one policy's per-application penalty profile.
type Figure7Result struct {
	Policy  string
	Profile []AppPenalty
	// FairnessCorr is the Spearman correlation between applications'
	// bandwidth demands and mean penalties — the quantitative version of
	// "bars extend up and to the right".
	FairnessCorr float64
}

// Figure7 runs the per-application fairness profile (Figure 7; Figure 1
// is its GR and CO subset) for all five policies over a population of n
// uniformly sampled jobs.
func (l *Lab) Figure7(n int, seed int64) ([]Figure7Result, error) {
	var out []Figure7Result
	for _, p := range policy.All() {
		profile, err := l.PenaltyProfile(p, n, seed)
		if err != nil {
			return nil, fmt.Errorf("policy %s: %w", p.Name(), err)
		}
		out = append(out, Figure7Result{
			Policy:       p.Name(),
			Profile:      profile,
			FairnessCorr: fairnessCorrelation(profile),
		})
	}
	return out, nil
}

// fairnessCorrelation computes Spearman correlation between bandwidth
// demand and mean penalty across the profile's applications.
func fairnessCorrelation(profile []AppPenalty) float64 {
	var bw, pen []float64
	for _, ap := range profile {
		if ap.Samples == 0 {
			continue
		}
		bw = append(bw, ap.BandwidthGBps)
		pen = append(pen, ap.MeanPenalty)
	}
	return stats.Spearman(bw, pen)
}

// Figure8Result ranks a policy's per-application penalties against
// bandwidth demands: when the penalty ranking tracks the bandwidth
// ranking, cost attribution is fair.
type Figure8Result struct {
	Policy        string
	Apps          []string
	PenaltyRanks  []float64
	BandwidthRank []float64
	RankCorr      float64 // Spearman of the two rankings
}

// Figure8 derives rank-fairness from Figure 7 profiles.
func Figure8(results []Figure7Result) []Figure8Result {
	var out []Figure8Result
	for _, r := range results {
		var apps []string
		var pen, bw []float64
		for _, ap := range r.Profile {
			if ap.Samples == 0 {
				continue
			}
			apps = append(apps, ap.App)
			pen = append(pen, ap.MeanPenalty)
			bw = append(bw, ap.BandwidthGBps)
		}
		out = append(out, Figure8Result{
			Policy:        r.Policy,
			Apps:          apps,
			PenaltyRanks:  stats.Ranks(pen),
			BandwidthRank: stats.Ranks(bw),
			RankCorr:      stats.Spearman(pen, bw),
		})
	}
	return out
}
