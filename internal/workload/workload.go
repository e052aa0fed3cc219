// Package workload provides the evaluation benchmarks of the paper's
// Table I — nine Apache Spark analytics jobs and eleven PARSEC 2.0
// benchmarks — as synthetic task models calibrated so that each job's
// standalone memory bandwidth on the simulated CMP equals the paper's
// measured value. It also samples the agent populations used throughout
// the evaluation (uniform and skewed workload mixes).
package workload

import (
	"fmt"
	"math/rand"
	"sort"

	"cooper/internal/arch"
	"cooper/internal/stats"
)

// Suite identifies the benchmark suite a job belongs to.
type Suite string

// Benchmark suites from the paper's Table I.
const (
	Spark  Suite = "spark"
	Parsec Suite = "parsec"
)

// Job is one catalog application: the paper's Table I row plus the
// calibrated microarchitectural model that reproduces its contentiousness
// on the simulated CMP.
type Job struct {
	ID          int    // Table I row number (1-20)
	Name        string // catalog name, e.g. "correlation"
	Application string // Table I application class, e.g. "Classifier"
	Dataset     string // Table I dataset
	Suite       Suite

	// BandwidthGBps is the paper's measured standalone memory bandwidth
	// (Table I's GBps column). Contentiousness throughout the evaluation
	// is exactly this demand for shared memory.
	BandwidthGBps float64

	// RuntimeS is the standalone completion time in seconds used by the
	// dispatcher simulation (Spark jobs run 10-15 min, PARSEC 2-5 min).
	RuntimeS float64

	// Model is the calibrated task model for the arch simulator.
	Model arch.TaskModel
}

// String returns the job name.
func (j Job) String() string { return j.Name }

// spec is the uncalibrated description of a catalog entry. WSBytes,
// MissFloor and CPI0 are chosen per application class so that the arch
// model reproduces each job's qualitative behaviour: streaming analytics
// have huge working sets and high compulsory-miss floors (bandwidth-bound,
// cache-insensitive); dedup and canneal have working sets near the LLC
// size with low floors (cache-sensitive); swaptions and vips are
// compute-bound.
type spec struct {
	id       int
	name     string
	app      string
	dataset  string
	suite    Suite
	gbps     float64
	runtimeS float64
	wsMB     float64
	floor    float64
	cpi0     float64
	tscale   float64
}

var catalogSpecs = []spec{
	// Apache Spark (datasets per Table I).
	{1, "correlation", "Statistics", "kdda'10", Spark, 25.05, 840, 2048, 0.85, 0.90, 0.90},
	{2, "decision", "Classifier", "kdda'10", Spark, 21.03, 780, 1024, 0.80, 0.90, 0.90},
	{3, "fpgrowth", "Mining", "wdc'12", Spark, 10.06, 900, 512, 0.60, 0.80, 0.88},
	{4, "gradient", "Classifier", "kdda'10", Spark, 21.06, 720, 1024, 0.80, 0.90, 0.90},
	{5, "kmeans", "Clustering", "uscensus", Spark, 0.32, 600, 16, 0.03, 0.70, 0.92},
	{6, "linear", "Classifier", "kdda'10", Spark, 14.66, 660, 768, 0.70, 0.85, 0.90},
	{7, "movie", "Recommender", "movielens", Spark, 5.69, 840, 256, 0.45, 0.80, 0.88},
	{8, "naive", "Classifier", "kdda'10", Spark, 23.44, 750, 1536, 0.82, 0.90, 0.90},
	{9, "svm", "Classifier", "kdda'10", Spark, 14.59, 690, 768, 0.70, 0.85, 0.90},
	// PARSEC 2.0 (native inputs).
	{10, "blacksch", "Finance", "native", Parsec, 0.99, 150, 4, 0.15, 1.40, 0.95},
	{11, "bodytr", "Vision", "native", Parsec, 0.15, 180, 6, 0.02, 1.20, 0.92},
	{12, "canneal", "Engineering", "native", Parsec, 3.34, 240, 20, 0.05, 0.70, 0.85},
	{13, "dedup", "Storage", "native", Parsec, 0.93, 120, 10, 0.01, 1.00, 0.90},
	{14, "facesim", "Animation", "native", Parsec, 1.80, 300, 36, 0.10, 1.10, 0.90},
	{15, "fluidanim", "Animation", "native", Parsec, 5.52, 240, 48, 0.25, 1.00, 0.92},
	{16, "raytrace", "Visualization", "native", Parsec, 0.57, 270, 12, 0.04, 1.30, 0.93},
	{17, "stream", "Data Mining", "native", Parsec, 18.53, 210, 256, 0.75, 0.80, 0.90},
	{18, "swapt", "Finance", "native", Parsec, 0.07, 180, 1, 0.02, 1.60, 0.96},
	{19, "vips", "Media", "native", Parsec, 0.05, 150, 2, 0.02, 1.50, 0.95},
	{20, "x264", "Media", "native", Parsec, 4.00, 210, 24, 0.20, 1.20, 0.92},
}

// Catalog builds the 20-job catalog calibrated against machine m: each
// job's standalone bandwidth on m equals its Table I value. It returns an
// error if any job's bandwidth is unreachable on the machine.
func Catalog(m arch.CMP) ([]Job, error) {
	jobs := make([]Job, 0, len(catalogSpecs))
	for _, s := range catalogSpecs {
		model := arch.TaskModel{
			CPI0:        s.cpi0,
			WSBytes:     s.wsMB * (1 << 20),
			MissFloor:   s.floor,
			ThreadScale: s.tscale,
		}
		api, err := arch.CalibrateAPI(m, model, s.gbps*1e9)
		if err != nil {
			return nil, fmt.Errorf("workload: calibrating %s: %w", s.name, err)
		}
		model.API = api
		if err := model.Validate(); err != nil {
			return nil, fmt.Errorf("workload: %s: %w", s.name, err)
		}
		jobs = append(jobs, Job{
			ID:            s.id,
			Name:          s.name,
			Application:   s.app,
			Dataset:       s.dataset,
			Suite:         s.suite,
			BandwidthGBps: s.gbps,
			RuntimeS:      s.runtimeS,
			Model:         model,
		})
	}
	return jobs, nil
}

// ByIntensity returns the catalog sorted by increasing memory bandwidth
// demand (the paper's contentiousness ordering, used as the x-axis of
// Figures 1, 7 and 8 and as the domain of the workload-mix densities).
func ByIntensity(jobs []Job) []Job {
	sorted := append([]Job(nil), jobs...)
	sort.Slice(sorted, func(a, b int) bool {
		if sorted[a].BandwidthGBps != sorted[b].BandwidthGBps {
			return sorted[a].BandwidthGBps < sorted[b].BandwidthGBps
		}
		return sorted[a].ID < sorted[b].ID
	})
	return sorted
}

// ReportedApps is the subset of eleven applications, ordered by increasing
// contentiousness, whose per-app penalties the paper reports on the x-axes
// of Figures 1, 7 and 8.
var ReportedApps = []string{
	"swapt", "bodytr", "dedup", "canneal", "svm", "linear",
	"stream", "decision", "gradient", "naive", "correlation",
}

// Find returns the catalog job with the given name.
func Find(jobs []Job, name string) (Job, bool) {
	for _, j := range jobs {
		if j.Name == name {
			return j, true
		}
	}
	return Job{}, false
}

// Population is a set of agents' jobs for one scheduling epoch.
type Population struct {
	// Jobs holds one entry per agent; index is the agent ID.
	Jobs []Job
	// Mix names the sampling density that produced the population.
	Mix string
}

// Sample draws a population of n agents from the catalog with replacement.
// The sampler's density over [0,1) maps onto the catalog ordered by memory
// intensity, so Beta-High mixes skew toward contentious jobs exactly as in
// the paper's Figure 11. It panics if the catalog is empty or n < 0.
func Sample(n int, jobs []Job, s stats.Sampler, r *rand.Rand) Population {
	if len(jobs) == 0 {
		panic("workload: Sample from empty catalog")
	}
	if n < 0 {
		panic("workload: negative population size")
	}
	ordered := ByIntensity(jobs)
	p := Population{Jobs: make([]Job, n), Mix: s.Name()}
	for i := 0; i < n; i++ {
		u := s.Sample(r)
		idx := int(u * float64(len(ordered)))
		if idx >= len(ordered) {
			idx = len(ordered) - 1
		}
		p.Jobs[i] = ordered[idx]
	}
	return p
}
