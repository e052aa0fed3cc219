package cooper_test

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"

	"cooper"
)

// Build a framework with oracle penalties, run one epoch, and inspect the
// outcome. (Oracle mode skips profiling for deterministic doc output;
// production use omits it.)
func ExampleNew() {
	f, err := cooper.New(cooper.WithPolicy(cooper.SMR()), cooper.WithOracle(), cooper.WithSeed(1))
	if err != nil {
		panic(err)
	}
	pop := f.SamplePopulation(20, cooper.Uniform())
	report, err := f.RunEpoch(pop)
	if err != nil {
		panic(err)
	}
	fmt.Println("agents:", len(report.Match))
	fmt.Println("matching valid:", report.Match.Validate() == nil)
	// Output:
	// agents: 20
	// matching valid: true
}

// The paper's Figure 5 worked example: three memory-intensive jobs
// propose to three compute-intensive jobs.
func ExampleStableMarriage() {
	proposerPrefs := [][]int{
		{0, 1, 2}, // m1: c1 > c2 > c3
		{2, 0, 1}, // m2: c3 > c1 > c2
		{0, 1, 2}, // m3: c1 > c2 > c3
	}
	receiverPrefs := [][]int{
		{1, 2, 0}, // c1: m2 > m3 > m1
		{2, 0, 1}, // c2: m3 > m1 > m2
		{1, 0, 2}, // c3: m2 > m1 > m3
	}
	match, err := cooper.StableMarriage(proposerPrefs, receiverPrefs)
	if err != nil {
		panic(err)
	}
	for m, c := range match {
		fmt.Printf("m%d -> c%d\n", m+1, c+1)
	}
	// Output:
	// m1 -> c2
	// m2 -> c3
	// m3 -> c1
}

// The appendix's Shapley example: users contributing interference
// {1, 2, 3} are fairly charged {1.5, 2.0, 2.5}.
func ExampleShapley() {
	interference := []float64{1, 2, 3}
	value := func(coalition []int) float64 {
		if len(coalition) < 2 {
			return 0
		}
		var sum float64
		for _, i := range coalition {
			sum += interference[i]
		}
		return sum
	}
	phi, err := cooper.Shapley(3, value)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%.1f %.1f %.1f\n", phi[0], phi[1], phi[2])
	// Output:
	// 1.5 2.0 2.5
}

// Blocking pairs reveal instability: under the performance-optimal
// matching of the paper's Figure 2, users A and B would break away.
func ExampleBlockingPairs() {
	penalties := [][]float64{
		{0.00, 0.02, 0.10, 0.15}, // A
		{0.03, 0.00, 0.12, 0.20}, // B
		{0.08, 0.09, 0.00, 0.11}, // C
		{0.05, 0.07, 0.06, 0.00}, // D
	}
	performanceOptimal := cooper.Matching{3, 2, 1, 0} // {AD, BC}
	stable := cooper.Matching{1, 0, 3, 2}             // {AB, CD}
	fmt.Println("optimal blocked by:", cooper.BlockingPairs(performanceOptimal, penalties, 0))
	fmt.Println("stable blocked by:", cooper.BlockingPairs(stable, penalties, 0))
	// Output:
	// optimal blocked by: [[0 1] [0 2]]
	// stable blocked by: []
}

// The catalog reproduces the paper's Table I bandwidth ordering.
func ExampleCatalog() {
	jobs, err := cooper.Catalog(cooper.DefaultCMP())
	if err != nil {
		panic(err)
	}
	sort.Slice(jobs, func(a, b int) bool {
		return jobs[a].BandwidthGBps > jobs[b].BandwidthGBps
	})
	for _, j := range jobs[:3] {
		fmt.Printf("%s %.2f GB/s\n", j.Name, j.BandwidthGBps)
	}
	// Output:
	// correlation 25.05 GB/s
	// naive 23.44 GB/s
	// gradient 21.06 GB/s
}

// Every paper policy, by its abbreviation, clears the same oracle
// population into a valid matching.
func ExampleWithPolicy() {
	policies := []cooper.Policy{
		cooper.Greedy(), cooper.Complementary(), cooper.SMP(),
		cooper.SMR(), cooper.SR(), cooper.Threshold(0.05),
	}
	var pop cooper.Population
	for i, p := range policies {
		f, err := cooper.New(cooper.WithPolicy(p), cooper.WithOracle(), cooper.WithSeed(1))
		if err != nil {
			panic(err)
		}
		if i == 0 {
			pop = f.SamplePopulation(20, cooper.Uniform())
		}
		report, err := f.RunEpoch(pop)
		if err != nil {
			panic(err)
		}
		fmt.Println(p.Name(), report.Match.Validate() == nil)
	}
	// Output:
	// GR true
	// CO true
	// SMP true
	// SMR true
	// SR true
	// TH true
}

// The determinism contract: the worker count bounds each fan-out's
// goroutines and never changes a result, so one seed profiles, predicts
// and matches alike at 1 and 4 workers.
func ExampleWithWorkers() {
	match := func(workers int) cooper.Matching {
		f, err := cooper.New(cooper.WithWorkers(workers), cooper.WithSeed(3))
		if err != nil {
			panic(err)
		}
		report, err := f.RunEpoch(f.SamplePopulation(40, cooper.Uniform()))
		if err != nil {
			panic(err)
		}
		return report.Match
	}
	fmt.Println("same matching:", slices.Equal(match(1), match(4)))
	// Output:
	// same matching: true
}

// A fired context aborts an epoch with an error wrapping ErrCanceled;
// after Close, the framework rejects epochs with ErrClosed.
func ExampleFramework_Close() {
	f, err := cooper.New(cooper.WithOracle(), cooper.WithSeed(1))
	if err != nil {
		panic(err)
	}
	pop := f.SamplePopulation(20, cooper.Uniform())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = f.RunEpochContext(ctx, pop)
	fmt.Println("canceled:", errors.Is(err, cooper.ErrCanceled))
	if err := f.Close(); err != nil {
		panic(err)
	}
	_, err = f.RunEpoch(pop)
	fmt.Println("closed:", errors.Is(err, cooper.ErrClosed))
	// Output:
	// canceled: true
	// closed: true
}
