package profiler

import (
	"context"
	"math"
	"reflect"
	"sync"
	"testing"

	"cooper/internal/arch"
	"cooper/internal/workload"
)

func testSetup(t *testing.T) (arch.CMP, []workload.Job, *Database, *Profiler) {
	t.Helper()
	cmp := arch.DefaultCMP()
	jobs, err := workload.Catalog(cmp)
	if err != nil {
		t.Fatal(err)
	}
	db := NewDatabase()
	p := New(cmp, db, 1)
	// Short runs keep tests fast.
	p.Sim = arch.SimConfig{DurationS: 5, StepS: 1, PhaseNoise: 0.05, PhaseCorr: 0.5}
	return cmp, jobs, db, p
}

func TestProfileStandalone(t *testing.T) {
	_, jobs, db, p := testSetup(t)
	rec := p.ProfileStandalone(jobs[0])
	if rec.Job != jobs[0].Name || rec.CoRunner != "" {
		t.Errorf("record = %+v", rec)
	}
	if rec.ThroughputIPS <= 0 || rec.BandwidthGBps <= 0 {
		t.Errorf("non-positive measurements: %+v", rec)
	}
	if rec.Seq != 1 || db.Len() != 1 {
		t.Errorf("sequence/len wrong: seq=%d len=%d", rec.Seq, db.Len())
	}
}

func TestProfilePair(t *testing.T) {
	_, jobs, db, p := testSetup(t)
	corr, _ := workload.Find(jobs, "correlation")
	dedup, _ := workload.Find(jobs, "dedup")
	ra, rb := p.ProfilePair(dedup, corr)
	if ra.Job != "dedup" || ra.CoRunner != "correlation" {
		t.Errorf("record a = %+v", ra)
	}
	if rb.Job != "correlation" || rb.CoRunner != "dedup" {
		t.Errorf("record b = %+v", rb)
	}
	if db.Len() != 2 {
		t.Errorf("db len = %d", db.Len())
	}
}

func TestDatabaseSelect(t *testing.T) {
	_, jobs, db, p := testSetup(t)
	corr, _ := workload.Find(jobs, "correlation")
	dedup, _ := workload.Find(jobs, "dedup")
	p.ProfileStandalone(dedup)
	p.ProfilePair(dedup, corr)
	p.ProfilePair(corr, corr)

	if got := db.Select(Query{Job: "dedup"}); len(got) != 2 {
		t.Errorf("dedup records = %d, want 2", len(got))
	}
	if got := db.Select(Query{Job: "dedup", CoRunner: Solo}); len(got) != 1 {
		t.Errorf("dedup solo records = %d, want 1", len(got))
	}
	if got := db.Select(Query{CoRunner: "correlation"}); len(got) != 3 {
		t.Errorf("records with correlation co-runner = %d, want 3", len(got))
	}
	if got := db.Select(Query{Machine: "nonesuch"}); len(got) != 0 {
		t.Errorf("unknown machine matched %d records", len(got))
	}
	if got := db.Select(Query{Since: 2, Until: 3}); len(got) != 2 {
		t.Errorf("seq window matched %d records, want 2", len(got))
	}
}

func TestCampaignSparsity(t *testing.T) {
	_, jobs, db, p := testSetup(t)
	small := jobs[:8]
	if err := p.Campaign(small, 0.25); err != nil {
		t.Fatal(err)
	}
	d, err := PenaltyMatrix(db, small)
	if err != nil {
		t.Fatal(err)
	}
	got := Sparsity(d)
	// 25% of the 36 unordered pairs, each filling 1 or 2 of 64 entries.
	if got < 0.10 || got > 0.45 {
		t.Errorf("sparsity = %v, want near 0.25", got)
	}
}

func TestCampaignFull(t *testing.T) {
	_, jobs, db, p := testSetup(t)
	small := jobs[:6]
	if err := p.Campaign(small, 1.0); err != nil {
		t.Fatal(err)
	}
	d, err := PenaltyMatrix(db, small)
	if err != nil {
		t.Fatal(err)
	}
	if got := Sparsity(d); got != 1 {
		t.Errorf("full campaign sparsity = %v, want 1", got)
	}
	for i := range d {
		for j := range d[i] {
			if math.IsNaN(d[i][j]) {
				t.Fatalf("entry [%d][%d] still NaN", i, j)
			}
			if d[i][j] < -0.2 || d[i][j] > 1 {
				t.Errorf("penalty [%d][%d] = %v implausible", i, j, d[i][j])
			}
		}
	}
}

func TestCampaignClampsFraction(t *testing.T) {
	_, jobs, _, p := testSetup(t)
	if err := p.Campaign(jobs[:3], -0.5); err != nil {
		t.Fatal(err)
	}
	if err := p.Campaign(jobs[:3], 1.5); err != nil {
		t.Fatal(err)
	}
	if err := p.Campaign(nil, 0.5); err == nil {
		t.Error("empty catalog accepted")
	}
}

func TestPenaltyMatrixRequiresStandalone(t *testing.T) {
	_, jobs, db, p := testSetup(t)
	p.ProfilePair(jobs[0], jobs[1])
	if _, err := PenaltyMatrix(db, jobs[:2]); err == nil {
		t.Error("missing standalone profiles accepted")
	}
}

func TestDensePenaltiesStructure(t *testing.T) {
	cmp, jobs, _, _ := testSetup(t)
	d := DensePenalties(cmp, jobs)
	if len(d) != len(jobs) {
		t.Fatalf("matrix size %d", len(d))
	}
	// The paper's Figure 1 premise: penalties rise with the co-runner's
	// contentiousness. Check the trend for a sensitive victim.
	idx := func(name string) int {
		for i, j := range jobs {
			if j.Name == name {
				return i
			}
		}
		t.Fatalf("job %s missing", name)
		return -1
	}
	dedup := idx("dedup")
	if d[dedup][idx("swapt")] >= d[dedup][idx("correlation")] {
		t.Errorf("dedup penalty with swaptions (%v) should trail correlation (%v)",
			d[dedup][idx("swapt")], d[dedup][idx("correlation")])
	}
	for i := range d {
		for j := range d {
			if d[i][j] < -1e-9 || d[i][j] > 1 {
				t.Errorf("dense penalty [%d][%d] = %v out of range", i, j, d[i][j])
			}
		}
	}
}

// TestDensePenaltiesCacheInvariant pins that a pair cache only memoizes:
// the oracle matrix is the same bits with or without one, at any worker
// count — so a daemon that builds it without a cache serves what an
// in-process framework warming its cache would.
func TestDensePenaltiesCacheInvariant(t *testing.T) {
	cmp, jobs, _, _ := testSetup(t)
	want := DensePenalties(cmp, jobs)
	got, err := DensePenaltiesContext(context.Background(), cmp, jobs, 3, arch.NewPairCache(cmp, nil))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("cached oracle matrix differs from the direct one")
	}
}

func TestNoiselessPairMatchesDense(t *testing.T) {
	cmp, jobs, db, p := testSetup(t)
	p.MeasureNoise = 0
	p.Sim = arch.SimConfig{DurationS: 3, StepS: 1} // no phase noise
	small := jobs[:4]
	if err := p.Campaign(small, 1.0); err != nil {
		t.Fatal(err)
	}
	measured, err := PenaltyMatrix(db, small)
	if err != nil {
		t.Fatal(err)
	}
	dense := DensePenalties(cmp, small)
	for i := range dense {
		for j := range dense {
			if i == j {
				continue
			}
			if math.Abs(measured[i][j]-dense[i][j]) > 0.01 {
				t.Errorf("[%d][%d]: measured %v vs dense %v",
					i, j, measured[i][j], dense[i][j])
			}
		}
	}
}

func TestExpandToAgents(t *testing.T) {
	cmp, jobs, _, _ := testSetup(t)
	jobD := DensePenalties(cmp, jobs)
	pop := workload.Population{Jobs: []workload.Job{jobs[0], jobs[3], jobs[0]}}
	agentD, err := ExpandToAgents(jobD, jobs, pop)
	if err != nil {
		t.Fatal(err)
	}
	if agentD[0][1] != jobD[0][3] || agentD[1][0] != jobD[3][0] {
		t.Error("agent penalties should mirror job penalties")
	}
	if agentD[0][2] != jobD[0][0] {
		t.Error("same-job agents should see the self-pair penalty")
	}
	if agentD[0][0] != 0 {
		t.Error("diagonal should be zero")
	}
	bad := workload.Population{Jobs: []workload.Job{{Name: "ghost"}}}
	if _, err := ExpandToAgents(jobD, jobs, bad); err == nil {
		t.Error("unknown population job accepted")
	}
}

func TestSparsityEmpty(t *testing.T) {
	if got := Sparsity(nil); got != 0 {
		t.Errorf("empty sparsity = %v", got)
	}
}

func TestProfilerConcurrentUse(t *testing.T) {
	_, jobs, db, p := testSetup(t)
	var wg sync.WaitGroup
	for k := 0; k < 8; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			p.ProfilePair(jobs[k%4], jobs[(k+1)%4])
		}(k)
	}
	wg.Wait()
	if db.Len() != 16 {
		t.Errorf("db len = %d, want 16", db.Len())
	}
}

func TestMeasurementNoiseCanGoNegative(t *testing.T) {
	// The paper's footnote: variance occasionally makes colocated runs
	// look faster than standalone. With compute-bound pairs and noise,
	// some penalties should be negative.
	_, jobs, db, p := testSetup(t)
	p.MeasureNoise = 0.01
	swapt, _ := workload.Find(jobs, "swapt")
	vips, _ := workload.Find(jobs, "vips")
	small := []workload.Job{swapt, vips}
	for i := 0; i < 20; i++ {
		p.ProfilePair(swapt, vips)
	}
	p.ProfileStandalone(swapt)
	p.ProfileStandalone(vips)
	d, err := PenaltyMatrix(db, small)
	if err != nil {
		t.Fatal(err)
	}
	// Mean penalty for a compute pair is ~0; with noise the per-run values
	// straddle zero, so the average must sit very close to it.
	if math.Abs(d[0][1]) > 0.02 {
		t.Errorf("compute pair penalty %v should be ~0", d[0][1])
	}
}

func TestSparkLogMeasurementPath(t *testing.T) {
	cmp, jobs, db, p := testSetup(t)
	p.UseSparkLogs = true
	p.MeasureNoise = 0
	corr, _ := workload.Find(jobs, "correlation") // Spark
	dedup, _ := workload.Find(jobs, "dedup")      // PARSEC
	recCorr := p.ProfileStandalone(corr)
	recDedup := p.ProfileStandalone(dedup)

	// Spark throughput is quantized to whole tasks over the runtime but
	// must stay close to the direct measurement.
	direct := cmp.Solo(corr.Model).IPS
	if math.Abs(recCorr.ThroughputIPS-direct) > direct*0.1 {
		t.Errorf("log-path throughput %v too far from direct %v",
			recCorr.ThroughputIPS, direct)
	}
	// PARSEC path unaffected (perf-stat style, noiseless here).
	directD := cmp.Solo(dedup.Model).IPS
	if math.Abs(recDedup.ThroughputIPS-directD) > directD*0.02 {
		t.Errorf("parsec throughput %v should be direct %v",
			recDedup.ThroughputIPS, directD)
	}
	if db.Len() != 2 {
		t.Errorf("db len = %d", db.Len())
	}
}

func TestSparkLogPenaltiesStillSane(t *testing.T) {
	_, jobs, db, p := testSetup(t)
	p.UseSparkLogs = true
	corr, _ := workload.Find(jobs, "correlation")
	stream, _ := workload.Find(jobs, "stream")
	small := []workload.Job{corr, stream}
	p.ProfileStandalone(corr)
	p.ProfileStandalone(stream)
	p.ProfilePair(corr, stream)
	d, err := PenaltyMatrix(db, small)
	if err != nil {
		t.Fatal(err)
	}
	if d[0][1] < 0.05 || d[0][1] > 0.6 {
		t.Errorf("log-path penalty %v implausible for a contentious pair", d[0][1])
	}
}
