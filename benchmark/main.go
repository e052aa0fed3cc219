// Command benchmark is cooper-bench: the repository's one end-to-end and
// per-layer benchmark. BENCHMARK.json at the repository root names its
// workloads and metrics; README.md in this directory explains them.
//
//	bash benchmark/run.sh --workload wire-batch --seed 7 --seconds 10 --trace 0
//
// The last line of standard output is the result the driver reads: one
// JSON object with the keys correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

func main() {
	cfg := &config{sizes: committed}
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed every input is generated from")
	seconds := flag.Float64("seconds", 12, "length of the measured window")
	trace := flag.Int("trace", 0, "1 runs the traced run and reports the per-layer metrics instead of the end-to-end ones")
	flag.BoolVar(&cfg.check, "check", true, "check every output (matchings, penalties, wire symmetry, audit replay)")
	flag.StringVar(&cfg.cooperd, "cooperd", "", "cooperd binary the wire workloads start (run.sh builds and passes it)")
	flag.StringVar(&cfg.outDir, "out", filepath.Join("benchmark", "out"), "directory for traces, event logs and result files")
	sets := flag.Int("sets", 0, "A/A mode: run every workload in N sets of -runs runs and compare the sets' medians")
	runs := flag.Int("runs", 5, "runs per workload in one set of -sets, each on its own seed")
	flag.Parse()
	cfg.window = time.Duration(*seconds * float64(time.Second))
	cfg.trace = *trace != 0

	if *sets > 0 {
		if err := compareSets(cfg, *sets, *runs); err != nil {
			fatal(err)
		}
		return
	}
	res, err := run(cfg)
	if err != nil {
		fatal(err)
	}
	if err := res.report(cfg.outDir); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cooper-bench:", err)
	os.Exit(1)
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// header records where and on what a result was measured.
type header struct {
	Workload          string  `json:"workload"`
	Seed              int64   `json:"seed"`
	Seconds           float64 `json:"seconds"`
	Trace             bool    `json:"trace"`
	NProc             int     `json:"nproc"`
	GOMAXPROCS        int     `json:"gomaxprocs"`         // of the harness, which is also the wire workloads' generator
	CooperdGOMAXPROCS int     `json:"cooperd_gomaxprocs"` // 0 on the in-process workloads
	GoVersion         string  `json:"go_version"`
	CPUModel          string  `json:"cpu_model"`
	Commit            string  `json:"commit"`
	Sizes             sizes   `json:"sizes"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome: the contract line plus everything a reader
// needs to interpret it.
type result struct {
	Header    header                 `json:"header"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Samples   map[string]int         `json:"samples"` // sample count behind each percentile or mean
	Digest    string                 `json:"match_digest,omitempty"`
	Problems  []string               `json:"problems,omitempty"`
	TracePath string                 `json:"trace,omitempty"`
	Layers    []layerRow             `json:"layers,omitempty"`
}

func newResult(cfg *config) *result {
	return &result{
		Header: header{
			Workload:   cfg.workload,
			Seed:       cfg.seed,
			Seconds:    cfg.window.Seconds(),
			Trace:      cfg.trace,
			NProc:      runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion:  runtime.Version(),
			CPUModel:   cpuModel(),
			Commit:     commit(),
			Sizes:      cfg.sizes,
		},
		Correct: true,
		Metrics: make(map[string]metricValue),
		Samples: make(map[string]int),
	}
}

// put files a metric under its BENCHMARK.json name; n is the sample count
// behind it (0 when it is not a statistic).
func (r *result) put(name string, v float64, n int) {
	r.Metrics[name] = metricValue{Value: v, Unit: unitOf(name)}
	if n > 0 {
		r.Samples[name] = n
	}
}

func unitOf(name string) string {
	for _, list := range [][]spec{endToEnd, perLayer} {
		for _, s := range list {
			if s.Name == name {
				return s.Unit
			}
		}
	}
	panic("metric " + name + " is not in metrics.go")
}

// absorb folds one measured window's operation counts and check failures in.
func (r *result) absorb(m *measurement) {
	r.Attempted += m.attempted
	r.Failed += m.failed()
	r.Problems = append(r.Problems, m.problems...)
	if m.failures > 0 {
		r.Correct = false
	}
	if m.digest != "" {
		r.Digest = m.digest
	}
	if m.cooperdProcs > 0 {
		r.Header.CooperdGOMAXPROCS = m.cooperdProcs
		r.Header.GOMAXPROCS = m.generatorProcs
	}
}

// report prints every metric by name with its unit, writes the full result
// beside the traces, and ends with the contract line.
func (r *result) report(outDir string) error {
	if r.Attempted < 1 {
		return fmt.Errorf("%s: no operation was attempted", r.Header.Workload)
	}
	h := r.Header
	fmt.Printf("cooper-bench %s seed=%d seconds=%g trace=%v nproc=%d gomaxprocs=%d cooperd_gomaxprocs=%d %s %q commit=%s\n",
		h.Workload, h.Seed, h.Seconds, h.Trace, h.NProc, h.GOMAXPROCS, h.CooperdGOMAXPROCS, h.GoVersion, h.CPUModel, h.Commit)
	list := endToEnd
	if h.Trace {
		list = perLayer
	}
	for _, s := range list {
		m := r.Metrics[s.Name]
		fmt.Printf("  %-36s %14.6g %-8s", s.Name, m.Value, m.Unit)
		if n := r.Samples[s.Name]; n > 0 {
			fmt.Printf(" n=%d", n)
		}
		fmt.Println()
	}
	for _, l := range r.Layers {
		fmt.Printf("  span %-34s count=%-6d total=%10.3f ms  self=%10.3f ms\n", l.Name, l.Count, l.TotalMS, l.SelfMS)
	}
	for _, p := range r.Problems {
		fmt.Println("  FAILED CHECK:", p)
	}
	if r.Digest != "" {
		fmt.Println("  match_digest", r.Digest)
	}

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	kind := "e2e"
	if h.Trace {
		kind = "traced"
	}
	full, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(outDir, fmt.Sprintf("result-%s-%s.json", h.Workload, kind)), full, 0o644); err != nil {
		return err
	}

	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// cpuModel best-effort reads the CPU model string; empty when the platform
// does not expose /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return ""
}

// commit is the revision the binary was built from, when the build saw a
// git checkout (the driver's checkout is not one).
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
