package main

import (
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"cooper/internal/matching"
)

// smoke runs every workload's real code path in well under a second each:
// tiny populations, and the wire workloads against an in-process
// netproto.Server instead of a cooperd subprocess.
var smoke = sizes{
	SetupReps:    1,
	EpochAgents:  64,
	StreamAgents: 256,
	StreamShards: 4,
	StreamChurn:  0.02,
	CatalogJobs:  48,
	ExactFloor:   0.5, // a 48-job matrix at 25% is too sparse for the committed floors
	ApproxFloor:  0.5,
	WireAgents:   16,
	WireShards:   2,
	WireLifetime: 400 * time.Millisecond,
	JoinLimit:    250 * time.Millisecond,
}

func TestCheckMatchingRejectsBrokenMatchings(t *testing.T) {
	u := matching.Unmatched
	for _, tc := range []struct {
		name  string
		match matching.Matching
		solo  int
		ok    bool
	}{
		{"perfect", matching.Matching{1, 0, 3, 2}, 0, true},
		{"odd with one alone", matching.Matching{1, 0, u}, 1, true},
		{"asymmetric", matching.Matching{1, 2, 1, u}, 4, false},
		{"self-matched", matching.Matching{0, 2, 1}, 3, false},
		{"out of range", matching.Matching{1, 0, 7, 2}, 4, false},
		{"too many alone", matching.Matching{1, 0, u, u}, 1, false},
	} {
		err := checkMatching(tc.match, tc.solo)
		if (err == nil) != tc.ok {
			t.Errorf("%s: checkMatching(%v, %d) = %v, want ok=%v", tc.name, tc.match, tc.solo, err, tc.ok)
		}
	}
}

func TestCheckPenaltiesRejectsAWrongLookup(t *testing.T) {
	matrix := [][]float64{{0, 0.1}, {0.3, 0}}
	match := matching.Matching{1, 0, matching.Unmatched}
	jobIdx := []int{0, 1, 0}
	if err := checkPenalties("p", []float64{0.1, 0.3, 0}, match, jobIdx, matrix); err != nil {
		t.Errorf("correct penalties rejected: %v", err)
	}
	if err := checkPenalties("p", []float64{0.3, 0.1, 0}, match, jobIdx, matrix); err == nil {
		t.Error("transposed penalties accepted")
	}
	if err := checkPenalties("p", []float64{0.1, 0.3, 0.1}, match, jobIdx, matrix); err == nil {
		t.Error("a penalty for an agent running alone accepted")
	}
}

func TestCheckSymmetryRejectsOneSidedAssignments(t *testing.T) {
	agent := func(id, seq, partner int) *wireAgent {
		return &wireAgent{id: id, epochs: []agentEpoch{{seq: seq, partner: partner, closed: true}}}
	}
	m := &measurement{}
	checkSymmetry(m, []*wireAgent{agent(0, 1, 1), agent(1, 1, 0), agent(2, 1, -1), agent(3, 2, 0)})
	if m.failures != 0 {
		t.Errorf("symmetric round rejected: %v", m.problems)
	}
	checkSymmetry(m, []*wireAgent{agent(0, 1, 1), agent(1, 1, 2), agent(2, 1, 1)})
	if m.failures == 0 {
		t.Error("agent 0 names 1 while 1 names 2: accepted")
	}
}

// benchmarkJSON is the whole of BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		spec
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []spec `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

func TestBenchmarkJSONNamesWhatTheHarnessEmits(t *testing.T) {
	b := readBenchmarkJSON(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the harness %q (or their reasons differ)", i, w.Name, workloads[i].name)
		}
		if !name.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: name or why outside the contract", w.Name)
		}
	}
	var listed []spec
	hasSetup := false
	for _, e := range b.EndToEnd {
		listed = append(listed, e.spec)
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", e.Name, e.Bound)
		}
		hasSetup = hasSetup || (e.Name == "setup_s" && e.Unit == "s" && e.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	seen := make(map[string]bool)
	for which, pair := range [][2][]spec{{listed, endToEnd}, {b.PerLayer, perLayer}} {
		got, want := pair[0], pair[1]
		if len(got) != len(want) {
			t.Fatalf("list %d: BENCHMARK.json has %d metrics, metrics.go %d", which, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("BENCHMARK.json has %+v where metrics.go has %+v", got[i], want[i])
			}
			if !name.MatchString(want[i].Name) || !unit.MatchString(want[i].Unit) || seen[want[i].Name] {
				t.Errorf("%+v: name or unit outside the contract, or used twice", want[i])
			}
			if want[i].Better != "lower" && want[i].Better != "higher" {
				t.Errorf("%s: better is %q", want[i].Name, want[i].Better)
			}
			seen[want[i].Name] = true
		}
	}
}

func TestSmokeEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := &config{workload: w.name, seed: 3, window: 400 * time.Millisecond,
				trace: traced, check: true, outDir: t.TempDir(), sizes: smoke}
			res, err := run(cfg)
			if err != nil {
				t.Errorf("%s traced=%v: %v", w.name, traced, err)
				continue
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d: %v",
					w.name, traced, res.Correct, res.Attempted, res.Failed, res.Problems)
			}
			list := endToEnd
			if traced {
				list = perLayer
			}
			if len(res.Metrics) != len(list) {
				t.Errorf("%s traced=%v: %d metrics emitted, %d listed", w.name, traced, len(res.Metrics), len(list))
			}
			for _, s := range list {
				m, ok := res.Metrics[s.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: %s not emitted", w.name, traced, s.Name)
				case m.Unit != s.Unit:
					t.Errorf("%s: %s has unit %q, want %q", w.name, s.Name, m.Unit, s.Unit)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v; it must never be zero", w.name, s.Name, m.Value)
				}
				// A percentile states how many samples stand behind it.
				if percentile.MatchString(s.Name) && ok && m.Value != 0 && res.Samples[s.Name] == 0 && !exported[s.Name] {
					t.Errorf("%s traced=%v: %s = %v states no sample count", w.name, traced, s.Name, m.Value)
				}
			}
			if traced {
				if _, err := os.Stat(res.TracePath); err != nil {
					t.Errorf("%s: no trace written: %v", w.name, err)
				}
			}
		}
	}
}

var percentile = regexp.MustCompile(`_p\d+$`)

// exported percentiles are read from the coordinator's own histograms,
// which state their counts in its snapshot, not here.
var exported = map[string]bool{
	"netproto.admit_wait_ms_p50":    true,
	"netproto.admit_wait_ms_p99":    true,
	"netproto.epoch_latency_ms_p50": true,
	"netproto.assign_ms_p99":        true,
	"gen_late_ms_p99":               true,
}
