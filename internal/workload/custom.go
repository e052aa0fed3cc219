package workload

import (
	"fmt"

	"cooper/internal/arch"
)

// Spec is the serializable description of one application for custom
// catalogs: what a datacenter operator knows or can measure about a job,
// without microarchitectural detail. The calibration pipeline derives the
// task model from it, exactly as the built-in catalog is derived from the
// paper's Table I.
type Spec struct {
	Name        string `json:"name"`
	Application string `json:"application,omitempty"`
	Dataset     string `json:"dataset,omitempty"`
	Suite       Suite  `json:"suite,omitempty"`
	// BandwidthGBps is the job's measured standalone memory bandwidth —
	// the one number the paper's methodology requires per job.
	BandwidthGBps float64 `json:"bandwidth_gbps"`
	// RuntimeS is the standalone completion time used by the dispatcher.
	RuntimeS float64 `json:"runtime_s"`
	// WorkingSetMB scales the job's miss-ratio curve (default 64).
	WorkingSetMB float64 `json:"working_set_mb,omitempty"`
	// MissFloor is the compulsory miss ratio in [0,1] (default 0.3).
	MissFloor float64 `json:"miss_floor,omitempty"`
	// CPI0 is the core-bound cycles per instruction (default 1.0).
	CPI0 float64 `json:"cpi0,omitempty"`
	// ThreadScale in (0,1] derates parallel scaling (default 0.9).
	ThreadScale float64 `json:"thread_scale,omitempty"`
}

func (s Spec) withDefaults() Spec {
	if s.Suite == "" {
		s.Suite = "custom"
	}
	if s.WorkingSetMB == 0 {
		s.WorkingSetMB = 64
	}
	if s.MissFloor == 0 {
		s.MissFloor = 0.3
	}
	if s.CPI0 == 0 {
		s.CPI0 = 1.0
	}
	if s.ThreadScale == 0 {
		s.ThreadScale = 0.9
	}
	return s
}

// BuildCatalog calibrates a catalog from specs against machine m: each
// job's standalone bandwidth on m will match its spec. Names must be
// unique and non-empty.
func BuildCatalog(m arch.CMP, specs []Spec) ([]Job, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("workload: no specs")
	}
	seen := make(map[string]bool)
	jobs := make([]Job, 0, len(specs))
	for i, raw := range specs {
		s := raw.withDefaults()
		if s.Name == "" {
			return nil, fmt.Errorf("workload: spec %d has no name", i)
		}
		if seen[s.Name] {
			return nil, fmt.Errorf("workload: duplicate job name %q", s.Name)
		}
		seen[s.Name] = true
		if s.BandwidthGBps < 0 {
			return nil, fmt.Errorf("workload: %s: negative bandwidth", s.Name)
		}
		if s.RuntimeS <= 0 {
			return nil, fmt.Errorf("workload: %s: runtime must be positive", s.Name)
		}
		model := arch.TaskModel{
			CPI0:        s.CPI0,
			WSBytes:     s.WorkingSetMB * (1 << 20),
			MissFloor:   s.MissFloor,
			ThreadScale: s.ThreadScale,
		}
		api, err := arch.CalibrateAPI(m, model, s.BandwidthGBps*1e9)
		if err != nil {
			return nil, fmt.Errorf("workload: calibrating %s: %w", s.Name, err)
		}
		model.API = api
		if err := model.Validate(); err != nil {
			return nil, fmt.Errorf("workload: %s: %w", s.Name, err)
		}
		jobs = append(jobs, Job{
			ID:            i + 1,
			Name:          s.Name,
			Application:   s.Application,
			Dataset:       s.Dataset,
			Suite:         s.Suite,
			BandwidthGBps: s.BandwidthGBps,
			RuntimeS:      s.RuntimeS,
			Model:         model,
		})
	}
	return jobs, nil
}
