package energy

import (
	"math"
	"testing"

	"cooper/internal/arch"
	"cooper/internal/cluster"
	"cooper/internal/workload"
)

func TestServerModelValidate(t *testing.T) {
	if err := DefaultServer().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []ServerModel{
		{IdleWatts: -1, PeakWatts: 100},
		{IdleWatts: 100, PeakWatts: 0},
		{IdleWatts: 500, PeakWatts: 400},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("model %d accepted", i)
		}
	}
}

// TestPowerCurve pins the linear model P(u) = idle + (peak-idle)·u as
// Account applies it: one machine busy for the whole makespan draws
// P(0.5) under a solo job and P(1) under a colocated pair.
func TestPowerCurve(t *testing.T) {
	m := ServerModel{IdleWatts: 100, PeakWatts: 300}
	cases := []struct {
		a     cluster.Assignment
		watts float64
	}{
		{cluster.Assignment{AgentA: 0, AgentB: -1}, 200},
		{cluster.Assignment{AgentA: 0, AgentB: 1}, 300},
	}
	for _, tt := range cases {
		rep, err := Account(m, 1, []cluster.Result{{Assignment: tt.a, StartS: 0, EndS: 10}})
		if err != nil {
			t.Fatal(err)
		}
		if rep.EnergyJ != tt.watts*10 {
			t.Errorf("solo=%v: %v J over 10 s, want %v W", tt.a.Solo(), rep.EnergyJ, tt.watts)
		}
	}
}

func dispatchPairsAndSolos(t *testing.T, colocate bool) (int, []cluster.Result) {
	t.Helper()
	cmp := arch.DefaultCMP()
	jobs, err := workload.Catalog(cmp)
	if err != nil {
		t.Fatal(err)
	}
	swapt, _ := workload.Find(jobs, "swapt")
	x264, _ := workload.Find(jobs, "x264")
	var batch []cluster.Assignment
	if colocate {
		for i := 0; i < 4; i += 2 {
			batch = append(batch, cluster.Assignment{
				AgentA: i, AgentB: i + 1, JobA: swapt, JobB: x264,
			})
		}
	} else {
		for i := 0; i < 4; i++ {
			job := swapt
			if i%2 == 1 {
				job = x264
			}
			batch = append(batch, cluster.Assignment{AgentA: i, AgentB: -1, JobA: job})
		}
	}
	machines := len(batch)
	cl, err := cluster.New(machines, cmp)
	if err != nil {
		t.Fatal(err)
	}
	return machines, cl.Dispatch(batch)
}

func TestAccountBasics(t *testing.T) {
	machines, results := dispatchPairsAndSolos(t, true)
	rep, err := Account(DefaultServer(), machines, results)
	if err != nil {
		t.Fatal(err)
	}
	if rep.EnergyJ <= 0 || rep.EnergyPerJobJ <= 0 {
		t.Errorf("report = %+v", rep)
	}
	if rep.MeanUtilization <= 0 || rep.MeanUtilization > 1 {
		t.Errorf("utilization = %v", rep.MeanUtilization)
	}
	// Sanity: energy at least the idle floor over the makespan.
	floor := DefaultServer().IdleWatts * float64(machines) * rep.MakespanS
	if rep.EnergyJ < floor {
		t.Errorf("energy %v below idle floor %v", rep.EnergyJ, floor)
	}
}

func TestAccountValidation(t *testing.T) {
	if _, err := Account(ServerModel{}, 1, nil); err == nil {
		t.Error("invalid model accepted")
	}
	if _, err := Account(DefaultServer(), 0, nil); err == nil {
		t.Error("zero machines accepted")
	}
	rep, err := Account(DefaultServer(), 1, nil)
	if err != nil || rep.EnergyJ != 0 {
		t.Errorf("empty results: %+v err=%v", rep, err)
	}
}

func TestColocationSavesEnergy(t *testing.T) {
	// The paper's motivating claim: colocating halves the machines for
	// the same work and cuts energy per job, even though pairs run a bit
	// slower.
	coloMachines, coloResults := dispatchPairsAndSolos(t, true)
	soloMachines, soloResults := dispatchPairsAndSolos(t, false)
	cmp, err := Compare(DefaultServer(), coloMachines, coloResults,
		soloMachines, soloResults)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.SavingsPct <= 10 {
		t.Errorf("colocation savings = %.1f%%, want substantial", cmp.SavingsPct)
	}
	if cmp.Colocated.EnergyPerJobJ >= cmp.Solo.EnergyPerJobJ {
		t.Errorf("colocated energy/job %v should beat solo %v",
			cmp.Colocated.EnergyPerJobJ, cmp.Solo.EnergyPerJobJ)
	}
	if math.IsNaN(cmp.SavingsPct) {
		t.Error("NaN savings")
	}
}
