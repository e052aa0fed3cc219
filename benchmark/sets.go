package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// A/A mode: the same code measured in several sets of runs, each run its
// own process on its own seed, the way the driver measures a parent and a
// change. For every workload and end-to-end metric it prints each set's
// median, the widest relative spread (interquartile range over median) and
// the metric's bound from BENCHMARK.json, and a verdict:
//
//	PASS        every spread is within the bound and no later set's median
//	            is worse than the first's by more than the bound
//	UNRESOLVED  a spread is wider than the bound: the sets cannot be told apart
//	FAIL        a later median is worse than the first's by more than the bound

// benchmarkFile is the part of BENCHMARK.json A/A mode reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func compareSets(cfg *config, sets, runs int) error {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("A/A mode reads the bounds from BENCHMARK.json: run it from the repository root: %w", err)
	}
	var bench benchmarkFile
	if err := json.Unmarshal(data, &bench); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	names := workloadNames()
	if cfg.workload != "" {
		names = []string{cfg.workload}
	}
	// values[workload][metric][set] = one value per run
	values := make(map[string]map[string][]samples)
	failedRuns := 0
	for set := 0; set < sets; set++ {
		for _, w := range names {
			for r := 0; r < runs; r++ {
				seed := cfg.seed + int64(r)
				out, err := exec.Command(self,
					"-workload", w, "-seed", strconv.FormatInt(seed, 10),
					"-seconds", strconv.FormatFloat(cfg.window.Seconds(), 'g', -1, 64),
					"-check="+strconv.FormatBool(cfg.check), "-cooperd", cfg.cooperd, "-out", cfg.outDir).Output()
				if err != nil {
					return fmt.Errorf("set %d %s seed %d: %w", set, w, seed, err)
				}
				lines := strings.Split(strings.TrimSpace(string(out)), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					return fmt.Errorf("set %d %s seed %d: result line: %w", set, w, seed, err)
				}
				if !res.Correct || res.Failed > 0 {
					failedRuns++
				}
				fmt.Fprintf(os.Stderr, "set %d %-16s seed %d: correct=%v attempted=%d failed=%d\n",
					set, w, seed, res.Correct, res.Attempted, res.Failed)
				if values[w] == nil {
					values[w] = make(map[string][]samples)
				}
				for name, mv := range res.Metrics {
					if values[w][name] == nil {
						values[w][name] = make([]samples, sets)
					}
					values[w][name][set].add(mv.Value)
				}
			}
		}
	}

	if raw, err := json.MarshalIndent(values, "", " "); err == nil {
		// Every run's value, for whoever wants to look past the medians.
		if err := os.WriteFile(filepath.Join(cfg.outDir, "sets.json"), raw, 0o644); err != nil {
			return err
		}
	}
	fmt.Printf("%-16s %-16s %-32s %8s %6s  %s\n", "workload", "metric", "median per set", "spread", "bound", "verdict")
	worst := "PASS"
	for _, w := range names {
		for _, e := range bench.EndToEnd {
			perSet := values[w][e.Name]
			var medians []string
			var spread, drift, first float64
			if len(perSet) > 0 {
				_, first, _ = quartiles(perSet[0])
			}
			for set, s := range perSet {
				q1, med, q3 := quartiles(s)
				medians = append(medians, strconv.FormatFloat(med, 'g', 5, 64))
				if med != 0 {
					spread = max(spread, (q3-q1)/med)
				}
				if set > 0 && first != 0 {
					change := (med - first) / first
					if e.Better == "higher" {
						change = -change
					}
					drift = max(drift, change)
				}
			}
			verdict := "PASS"
			switch {
			case drift > e.Bound:
				verdict, worst = "FAIL", "FAIL"
			case spread > e.Bound && e.Name != "setup_s": // the driver gates setup_s on its medians only
				verdict = "UNRESOLVED"
				if worst == "PASS" {
					worst = verdict
				}
			}
			fmt.Printf("%-16s %-16s %-32s %7.2f%% %5.0f%%  %s\n", w, e.Name, strings.Join(medians, " "), 100*spread, 100*e.Bound, verdict)
		}
	}
	fmt.Printf("%d sets x %d runs x %d workloads: %s, %d runs with failed operations\n", sets, runs, len(names), worst, failedRuns)
	if worst == "FAIL" || failedRuns > 0 {
		os.Exit(1)
	}
	return nil
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(values, n=4) does (the exclusive method),
// which is what the driver computes spreads with.
func quartiles(s samples) (q1, median, q3 float64) {
	if len(s) == 0 {
		return 0, 0, 0
	}
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	data := append(samples(nil), s...)
	sort.Float64s(data)
	n := len(data)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		return (data[j-1]*(4-delta) + data[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}
