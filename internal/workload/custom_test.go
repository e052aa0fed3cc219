package workload

import (
	"math"
	"testing"

	"cooper/internal/arch"
)

func TestBuildCatalogCalibrates(t *testing.T) {
	cmp := arch.DefaultCMP()
	specs := []Spec{
		{Name: "webserver", BandwidthGBps: 2.5, RuntimeS: 300},
		{Name: "etl", BandwidthGBps: 18, RuntimeS: 900, WorkingSetMB: 512,
			MissFloor: 0.7, CPI0: 0.85},
		{Name: "codec", BandwidthGBps: 0.4, RuntimeS: 120, WorkingSetMB: 8,
			MissFloor: 0.05, CPI0: 1.4, ThreadScale: 0.95},
	}
	jobs, err := BuildCatalog(cmp, specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 3 {
		t.Fatalf("jobs = %d", len(jobs))
	}
	for i, j := range jobs {
		if j.ID != i+1 {
			t.Errorf("%s: ID %d", j.Name, j.ID)
		}
		got := cmp.Solo(j.Model).BandwidthBytes / 1e9
		if math.Abs(got-j.BandwidthGBps) > j.BandwidthGBps*0.02+0.001 {
			t.Errorf("%s: calibrated bandwidth %.3f vs spec %.3f",
				j.Name, got, j.BandwidthGBps)
		}
		if j.Suite != "custom" {
			t.Errorf("%s: default suite %q", j.Name, j.Suite)
		}
	}
}

func TestBuildCatalogValidation(t *testing.T) {
	cmp := arch.DefaultCMP()
	cases := []struct {
		name  string
		specs []Spec
	}{
		{"empty", nil},
		{"noName", []Spec{{BandwidthGBps: 1, RuntimeS: 10}}},
		{"duplicate", []Spec{
			{Name: "a", BandwidthGBps: 1, RuntimeS: 10},
			{Name: "a", BandwidthGBps: 2, RuntimeS: 10},
		}},
		{"negativeBW", []Spec{{Name: "a", BandwidthGBps: -1, RuntimeS: 10}}},
		{"zeroRuntime", []Spec{{Name: "a", BandwidthGBps: 1}}},
		{"unreachable", []Spec{{Name: "a", BandwidthGBps: 10000, RuntimeS: 10}}},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := BuildCatalog(cmp, tt.specs); err == nil {
				t.Error("expected error")
			}
		})
	}
}
