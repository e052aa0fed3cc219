package workload

import (
	"math"
	"testing"

	"cooper/internal/arch"
	"cooper/internal/stats"
)

func defaultCatalog(t *testing.T) []Job {
	t.Helper()
	jobs, err := Catalog(arch.DefaultCMP())
	if err != nil {
		t.Fatalf("Catalog: %v", err)
	}
	return jobs
}

func TestCatalogHasTwentyJobs(t *testing.T) {
	jobs := defaultCatalog(t)
	if len(jobs) != 20 {
		t.Fatalf("catalog has %d jobs, want 20", len(jobs))
	}
	seen := make(map[string]bool)
	for i, j := range jobs {
		if j.ID != i+1 {
			t.Errorf("job %s has ID %d, want %d", j.Name, j.ID, i+1)
		}
		if seen[j.Name] {
			t.Errorf("duplicate job name %q", j.Name)
		}
		seen[j.Name] = true
		if j.Suite != Spark && j.Suite != Parsec {
			t.Errorf("job %s has unknown suite %q", j.Name, j.Suite)
		}
		if j.RuntimeS <= 0 {
			t.Errorf("job %s has non-positive runtime", j.Name)
		}
	}
}

func TestCatalogSuiteRuntimes(t *testing.T) {
	// The paper: Spark jobs complete in 10-15 minutes, PARSEC in 2-5.
	for _, j := range defaultCatalog(t) {
		switch j.Suite {
		case Spark:
			if j.RuntimeS < 600 || j.RuntimeS > 900 {
				t.Errorf("%s: Spark runtime %v outside [600,900]", j.Name, j.RuntimeS)
			}
		case Parsec:
			if j.RuntimeS < 120 || j.RuntimeS > 300 {
				t.Errorf("%s: PARSEC runtime %v outside [120,300]", j.Name, j.RuntimeS)
			}
		}
	}
}

func TestCatalogCalibration(t *testing.T) {
	cmp := arch.DefaultCMP()
	for _, j := range defaultCatalog(t) {
		got := cmp.Solo(j.Model).BandwidthBytes / 1e9
		if math.Abs(got-j.BandwidthGBps) > j.BandwidthGBps*0.02+0.001 {
			t.Errorf("%s: standalone bandwidth %.3f GB/s, want %.3f",
				j.Name, got, j.BandwidthGBps)
		}
	}
}

func TestCatalogTableIValues(t *testing.T) {
	// Spot-check the calibrated catalog against Table I's GBps column.
	want := map[string]float64{
		"correlation": 25.05,
		"kmeans":      0.32,
		"stream":      18.53,
		"swapt":       0.07,
		"vips":        0.05,
		"dedup":       0.93,
	}
	jobs := defaultCatalog(t)
	for name, gbps := range want {
		j, ok := Find(jobs, name)
		if !ok {
			t.Fatalf("job %q missing from catalog", name)
		}
		if j.BandwidthGBps != gbps {
			t.Errorf("%s bandwidth = %v, want %v", name, j.BandwidthGBps, gbps)
		}
	}
}

func TestCatalogUnreachableBandwidth(t *testing.T) {
	tiny := arch.DefaultCMP()
	tiny.MemBWBytes = 1e6 // 1 MB/s: no Table I job fits
	tiny.FreqHz = 1e6
	if _, err := Catalog(tiny); err == nil {
		t.Error("expected calibration error on tiny machine")
	}
}

func TestByIntensityOrdering(t *testing.T) {
	jobs := defaultCatalog(t)
	ordered := ByIntensity(jobs)
	for i := 1; i < len(ordered); i++ {
		if ordered[i].BandwidthGBps < ordered[i-1].BandwidthGBps {
			t.Fatalf("not sorted at %d: %v after %v",
				i, ordered[i].BandwidthGBps, ordered[i-1].BandwidthGBps)
		}
	}
	if ordered[0].Name != "vips" {
		t.Errorf("least intense should be vips, got %s", ordered[0].Name)
	}
	if ordered[len(ordered)-1].Name != "correlation" {
		t.Errorf("most intense should be correlation, got %s",
			ordered[len(ordered)-1].Name)
	}
	// Original slice must not be reordered.
	if jobs[0].Name != "correlation" {
		t.Error("ByIntensity mutated its input")
	}
}

func TestReportedAppsExist(t *testing.T) {
	jobs := defaultCatalog(t)
	prev := -1.0
	for _, name := range ReportedApps {
		j, ok := Find(jobs, name)
		if !ok {
			t.Fatalf("reported app %q missing", name)
		}
		if j.BandwidthGBps < prev {
			t.Errorf("ReportedApps out of intensity order at %q", name)
		}
		prev = j.BandwidthGBps
	}
}

func TestFindMissing(t *testing.T) {
	if _, ok := Find(defaultCatalog(t), "nonesuch"); ok {
		t.Error("Find should miss")
	}
}

func TestSampleUniform(t *testing.T) {
	jobs := defaultCatalog(t)
	r := stats.NewRand(1)
	p := Sample(1000, jobs, stats.Uniform{}, r)
	if len(p.Jobs) != 1000 {
		t.Fatalf("population size %d", len(p.Jobs))
	}
	if p.Mix != "Uniform" {
		t.Errorf("mix = %q", p.Mix)
	}
	counts := make(map[string]int)
	for _, j := range p.Jobs {
		counts[j.Name]++
	}
	if len(counts) < 15 {
		t.Errorf("uniform sampling hit only %d of 20 jobs", len(counts))
	}
	for name, c := range counts {
		if c < 10 || c > 120 {
			t.Errorf("job %s count %d far from uniform expectation 50", name, c)
		}
	}
}

func TestSampleBetaSkews(t *testing.T) {
	jobs := defaultCatalog(t)
	meanBW := func(p Population) float64 {
		var sum float64
		for _, j := range p.Jobs {
			sum += j.BandwidthGBps
		}
		return sum / float64(len(p.Jobs))
	}
	r := stats.NewRand(2)
	low := Sample(2000, jobs, stats.BetaLow(), r)
	high := Sample(2000, jobs, stats.BetaHigh(), r)
	uni := Sample(2000, jobs, stats.Uniform{}, r)
	if !(meanBW(low) < meanBW(uni) && meanBW(uni) < meanBW(high)) {
		t.Errorf("mix ordering violated: low=%.2f uni=%.2f high=%.2f",
			meanBW(low), meanBW(uni), meanBW(high))
	}
}

func TestSamplePanics(t *testing.T) {
	jobs := defaultCatalog(t)
	r := stats.NewRand(3)
	for _, fn := range []func(){
		func() { Sample(10, nil, stats.Uniform{}, r) },
		func() { Sample(-1, jobs, stats.Uniform{}, r) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestSampleZeroAgents(t *testing.T) {
	p := Sample(0, defaultCatalog(t), stats.Uniform{}, stats.NewRand(4))
	if len(p.Jobs) != 0 {
		t.Errorf("zero-size population has %d jobs", len(p.Jobs))
	}
}

func TestDedupIsSensitiveNotContentious(t *testing.T) {
	// The paper's central unfairness example: dedup demands little
	// bandwidth but suffers badly next to a contentious job.
	cmp := arch.DefaultCMP()
	jobs := defaultCatalog(t)
	dedup, _ := Find(jobs, "dedup")
	corr, _ := Find(jobs, "correlation")
	swapt, _ := Find(jobs, "swapt")

	solo := cmp.Solo(dedup.Model)
	withCorr, _ := cmp.Pair(dedup.Model, corr.Model)
	withSwapt, _ := cmp.Pair(dedup.Model, swapt.Model)
	dHigh := arch.Disutility(solo, withCorr)
	dLow := arch.Disutility(solo, withSwapt)
	if dHigh < 0.10 {
		t.Errorf("dedup next to correlation should suffer >=10%%, got %.3f", dHigh)
	}
	if dLow > 0.05 {
		t.Errorf("dedup next to swaptions should barely suffer, got %.3f", dLow)
	}
}
