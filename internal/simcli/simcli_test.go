package simcli

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cooper/internal/experiments"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

var sharedLab *experiments.Lab

func lab(t *testing.T) *experiments.Lab {
	t.Helper()
	if sharedLab == nil {
		l, err := experiments.NewLab()
		if err != nil {
			t.Fatal(err)
		}
		sharedLab = l
	}
	return sharedLab
}

// tinyOpts keeps every experiment fast enough for unit tests.
func tinyOpts() Options {
	return Options{N: 60, Pops: 2, Seed: 1, Quick: true}
}

func TestRunEveryExperimentText(t *testing.T) {
	l := lab(t)
	markers := map[string]string{
		"table1":    "Table I",
		"fig1":      "mean throughput penalty",
		"fig2":      "Figures 2-3",
		"fig5":      "Figure 5",
		"fig7":      "Figure 7",
		"fig8":      "Figure 8",
		"fig9":      "Figure 9",
		"fig10":     "Figure 10",
		"fig11":     "Figure 11",
		"fig12":     "Figure 12",
		"fig13":     "Figure 13",
		"fig14":     "Figure 14",
		"ablations": "proposer advantage",
		"load":      "Load sweep",
		"strategic": "misreporting",
		"shapley":   "Shapley attribution",
	}
	for name, marker := range markers {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := Run(&buf, l, name, tinyOpts()); err != nil {
				t.Fatalf("Run(%s): %v", name, err)
			}
			if !strings.Contains(buf.String(), marker) {
				t.Errorf("output missing %q:\n%s", marker, firstLines(buf.String(), 3))
			}
		})
	}
}

func TestRunJSONOutputs(t *testing.T) {
	l := lab(t)
	for _, name := range []string{"table1", "fig5", "fig12", "fig14", "strategic"} {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			opts := tinyOpts()
			opts.JSON = true
			if err := Run(&buf, l, name, opts); err != nil {
				t.Fatalf("Run(%s): %v", name, err)
			}
			var v any
			if err := json.Unmarshal(buf.Bytes(), &v); err != nil {
				t.Fatalf("invalid JSON: %v\n%s", err, firstLines(buf.String(), 3))
			}
		})
	}
}

// TestRunAllGolden pins every experiment's quick-scale output at seed 1,
// byte for byte: a refactor of the studies or the engine they clear
// through must not move a digit. Regenerate with
// go test ./internal/simcli -run TestRunAllGolden -update.
func TestRunAllGolden(t *testing.T) {
	for _, golden := range []struct {
		file string
		json bool
	}{
		{"all_quick_seed1.txt", false},
		{"all_quick_seed1.json", true},
	} {
		t.Run(golden.file, func(t *testing.T) {
			var buf bytes.Buffer
			if err := Run(&buf, lab(t), "all", Options{Quick: true, Seed: 1, JSON: golden.json}); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", golden.file)
			if *update {
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("output differs from %s (rerun with -update if the change is intended)", path)
			}
		})
	}
}

func TestRunFig3Alias(t *testing.T) {
	var buf bytes.Buffer
	if err := Run(&buf, lab(t), "fig3", tinyOpts()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Figures 2-3") {
		t.Error("fig3 alias broken")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := Run(&buf, lab(t), "fig99", tinyOpts()); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunDefaultsPopulation(t *testing.T) {
	// Zero N must fall back rather than run an empty experiment.
	var buf bytes.Buffer
	opts := Options{Seed: 1, Quick: true}
	if err := Run(&buf, lab(t), "fig5", opts); err != nil {
		t.Fatal(err)
	}
}

func TestNamesListsAll(t *testing.T) {
	names := Names()
	if names[len(names)-1] != "all" {
		t.Error("'all' should be last")
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Errorf("duplicate name %q", n)
		}
		seen[n] = true
	}
	for _, want := range []string{"table1", "fig7", "fig12", "shapley"} {
		if !seen[want] {
			t.Errorf("missing %q", want)
		}
	}
}

func firstLines(s string, n int) string {
	lines := strings.SplitN(s, "\n", n+1)
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, "\n")
}

func TestRunEfficiency(t *testing.T) {
	var buf bytes.Buffer
	if err := Run(&buf, lab(t), "efficiency", tinyOpts()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "energy per job") {
		t.Errorf("output missing efficiency header:\n%s", firstLines(buf.String(), 3))
	}
}

// TestTraceExport runs the -trace entry point with a Chrome-trace export
// path and checks both renderings: the text output carries the phase
// quantile table, and the exported file is valid trace_event JSON rooted
// at the pipeline span.
func TestTraceExport(t *testing.T) {
	out := filepath.Join(t.TempDir(), "trace.json")
	var buf bytes.Buffer
	if err := Trace(&buf, Options{N: 16, Seed: 1, TraceOut: out}); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{"span tree", "phase timings (ms):", "p99", "chrome trace written"} {
		if !strings.Contains(text, want) {
			t.Errorf("trace output missing %q:\n%s", want, firstLines(text, 8))
		}
	}

	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			TS   *int64 `json:"ts"`
			Dur  *int64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatalf("%s is not valid JSON: %v", out, err)
	}
	if len(trace.TraceEvents) < 2 {
		t.Fatalf("exported %d events, want the pipeline span plus phases", len(trace.TraceEvents))
	}
	if trace.TraceEvents[0].Name != "pipeline" {
		t.Errorf("root event = %q, want pipeline", trace.TraceEvents[0].Name)
	}
	for _, ev := range trace.TraceEvents {
		if ev.Ph != "X" || ev.TS == nil || ev.Dur == nil {
			t.Errorf("event %q malformed: ph=%q ts=%v dur=%v", ev.Name, ev.Ph, ev.TS, ev.Dur)
		}
	}
}
