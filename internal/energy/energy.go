// Package energy models server power and energy, quantifying the paper's
// motivation: servers draw large idle power, so running one small task
// per machine wastes energy, and colocation amortizes the fixed cost over
// more work ("when a server's large power costs are amortized over little
// work, energy efficiency suffers"). The model is the standard linear
// datacenter abstraction: P(u) = P_idle + (P_peak - P_idle) * u.
package energy

import (
	"fmt"

	"cooper/internal/cluster"
)

// ServerModel is the power envelope of one machine.
type ServerModel struct {
	// IdleWatts is the power drawn at zero utilization.
	IdleWatts float64
	// PeakWatts is the power drawn at full utilization.
	PeakWatts float64
}

// DefaultServer reflects the paper's dual-socket Xeon era: ~150 W idle,
// ~400 W peak per node.
func DefaultServer() ServerModel {
	return ServerModel{IdleWatts: 150, PeakWatts: 400}
}

// Validate reports whether the model is usable.
func (m ServerModel) Validate() error {
	if m.IdleWatts < 0 || m.PeakWatts <= 0 || m.PeakWatts < m.IdleWatts {
		return fmt.Errorf("energy: implausible power envelope %+v", m)
	}
	return nil
}

// Report is the energy accounting of one dispatch round.
type Report struct {
	Machines        int
	MakespanS       float64
	EnergyJ         float64 // total energy over the makespan
	EnergyPerJobJ   float64
	MeanUtilization float64
}

// Account computes the energy of executing the dispatch results on a
// cluster of `machines` nodes: every powered node draws idle power for
// the full makespan plus dynamic power while busy. Each result's busy
// interval runs one (solo) or two (pair) jobs; a colocated pair drives
// utilization to 1.0, a solo job to 0.5 (half the CMP's threads).
func Account(model ServerModel, machines int, results []cluster.Result) (Report, error) {
	if err := model.Validate(); err != nil {
		return Report{}, err
	}
	if machines <= 0 {
		return Report{}, fmt.Errorf("energy: need at least one machine")
	}
	rep := Report{Machines: machines}
	jobs := 0
	var busyUtilIntegral, busyIntegral float64
	for _, r := range results {
		if r.EndS > rep.MakespanS {
			rep.MakespanS = r.EndS
		}
		dur := r.EndS - r.StartS
		util := 0.5
		jobs++
		if !r.Assignment.Solo() {
			util = 1.0
			jobs++
		}
		busyUtilIntegral += util * dur
		busyIntegral += dur
	}
	if rep.MakespanS == 0 {
		return rep, nil
	}
	// Idle floor for every powered machine over the whole makespan, plus
	// dynamic power proportional to utilization while busy.
	idleJ := model.IdleWatts * float64(machines) * rep.MakespanS
	dynamicJ := (model.PeakWatts - model.IdleWatts) * busyUtilIntegral
	rep.EnergyJ = idleJ + dynamicJ
	if jobs > 0 {
		rep.EnergyPerJobJ = rep.EnergyJ / float64(jobs)
	}
	rep.MeanUtilization = busyUtilIntegral / (float64(machines) * rep.MakespanS)
	return rep, nil
}

// Comparison contrasts a colocated schedule with a solo schedule of the
// same work.
type Comparison struct {
	Colocated Report
	Solo      Report
	// SavingsPct is the energy-per-job reduction from colocation.
	SavingsPct float64
}

// Compare runs the energy accounting for both schedules.
func Compare(model ServerModel, colocatedMachines int, colocated []cluster.Result,
	soloMachines int, solo []cluster.Result) (Comparison, error) {
	c, err := Account(model, colocatedMachines, colocated)
	if err != nil {
		return Comparison{}, err
	}
	s, err := Account(model, soloMachines, solo)
	if err != nil {
		return Comparison{}, err
	}
	cmp := Comparison{Colocated: c, Solo: s}
	if s.EnergyPerJobJ > 0 {
		cmp.SavingsPct = 100 * (1 - c.EnergyPerJobJ/s.EnergyPerJobJ)
	}
	return cmp, nil
}
