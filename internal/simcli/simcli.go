// Package simcli implements the cooper-sim command's experiment runner:
// it maps experiment names to the generators in package experiments and
// renders results as text or JSON. Living in an internal package (rather
// than package main) keeps the dispatch logic testable.
package simcli

import (
	"encoding/json"
	"fmt"
	"io"

	"cooper/internal/experiments"
)

// Options scales and shapes a run.
type Options struct {
	// N is the population size (agents per epoch).
	N int
	// Pops is the number of populations for multi-population experiments;
	// 0 means each figure's paper default.
	Pops int
	// Seed drives all randomness.
	Seed int64
	// Quick scales experiments down for a fast smoke run.
	Quick bool
	// Workers bounds the goroutines of each pipeline fan-out;
	// 0 means GOMAXPROCS, 1 forces the serial path. Results are identical
	// at any value.
	Workers int
	// JSON emits the experiment's result structure as JSON instead of the
	// text rendering.
	JSON bool
	// TraceOut, when set, makes Trace also export the span tree as Chrome
	// trace_event JSON to this path, openable in Perfetto
	// (ui.perfetto.dev) or chrome://tracing.
	TraceOut string
	// Epochs is how many scheduling epochs Trace runs, each over a
	// freshly sampled population (0 means 1). With EventsOut this yields
	// a multi-epoch replayable log.
	Epochs int
	// EventsOut, when set, makes Trace append the flight-recorder event
	// stream — epoch snapshots included — to this JSONL file as it is
	// recorded: the cooper-replay input, parity with cooperd -events-out.
	EventsOut string
}

// Names lists the runnable experiments in presentation order.
func Names() []string {
	return []string{
		"table1", "fig1", "fig2", "fig5", "fig7", "fig8", "fig9", "fig10",
		"fig11", "fig12", "fig13", "fig14", "ablations", "load",
		"strategic", "shapley", "efficiency", "hetero", "all",
	}
}

// popsOr returns the configured population count or the figure's paper
// default (scaled down under Quick).
func (o Options) popsOr(def int) int {
	if o.Pops > 0 {
		return o.Pops
	}
	if o.Quick && def > 5 {
		return 5
	}
	return def
}

// Run executes one experiment and writes its rendering to w.
func Run(w io.Writer, lab *experiments.Lab, name string, opts Options) error {
	if opts.N <= 0 {
		opts.N = 1000
	}
	if opts.Quick && opts.N > 200 {
		opts.N = 200
	}
	emit := func(text string, value any) error {
		if opts.JSON {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(value)
		}
		_, err := io.WriteString(w, text)
		return err
	}

	switch name {
	case "table1":
		rows := lab.Table1()
		return emit(experiments.RenderTable1(rows), rows)
	case "fig1":
		results, err := lab.Figure7(opts.N, opts.Seed)
		if err != nil {
			return err
		}
		var subset []experiments.Figure7Result
		text := ""
		for _, res := range results {
			if res.Policy == "GR" || res.Policy == "CO" {
				subset = append(subset, res)
				text += experiments.RenderProfile(res.Policy, res.Profile) + "\n"
			}
		}
		return emit(text, subset)
	case "fig2", "fig3":
		m, err := lab.Motivation()
		if err != nil {
			return err
		}
		return emit(experiments.RenderMotivation(m), m)
	case "fig5":
		tr, err := experiments.Figure5()
		if err != nil {
			return err
		}
		return emit(experiments.RenderFigure5(tr), tr)
	case "fig7":
		results, err := lab.Figure7(opts.N, opts.Seed)
		if err != nil {
			return err
		}
		return emit(experiments.RenderFigure7(results), results)
	case "fig8":
		results, err := lab.Figure7(opts.N, opts.Seed)
		if err != nil {
			return err
		}
		ranks := experiments.Figure8(results)
		return emit(experiments.RenderFigure8(ranks), ranks)
	case "fig9":
		// Penalty differences within 1% sit inside the paper's run-to-run
		// measurement variance and count as unchanged.
		results, err := lab.Figure9(opts.popsOr(10), opts.N, 0.01, opts.Seed)
		if err != nil {
			return err
		}
		return emit(experiments.RenderFigure9(results), results)
	case "fig10":
		alphas := []float64{0, 0.01, 0.02, 0.03, 0.04, 0.05}
		results, err := lab.Figure10(opts.popsOr(50), opts.N, alphas, opts.Seed)
		if err != nil {
			return err
		}
		return emit(experiments.RenderFigure10(results), results)
	case "fig11":
		cells, err := lab.Figure11(opts.N, opts.Seed)
		if err != nil {
			return err
		}
		return emit(experiments.RenderFigure11(cells), cells)
	case "fig12":
		trials := 10
		if opts.Quick {
			trials = 3
		}
		points, err := lab.Figure12(experiments.DefaultFractions(), trials, opts.Seed)
		if err != nil {
			return err
		}
		return emit(experiments.RenderFigure12(points), points)
	case "fig13":
		sizes := []int{10, 100, 1000}
		trials := 12
		if opts.Quick {
			sizes = []int{10, 100, 400}
			trials = 6
		}
		points, err := lab.Figure13(sizes, trials, opts.Seed)
		if err != nil {
			return err
		}
		return emit(experiments.RenderFigure13(points), points)
	case "fig14":
		res, err := experiments.Figure14()
		if err != nil {
			return err
		}
		return emit(experiments.RenderFigure14(res), res)
	case "ablations":
		pa, err := lab.ProposerAdvantage(opts.N, opts.Seed)
		if err != nil {
			return err
		}
		pm, err := lab.PredictionToMatching(
			[]float64{0.15, 0.25, 0.50, 0.75, 1.0}, opts.N, opts.Seed)
		if err != nil {
			return err
		}
		th, err := lab.ThresholdStudy([]float64{0.02, 0.05, 0.10, 1.0}, opts.N, opts.Seed)
		if err != nil {
			return err
		}
		quadN := opts.N
		if quadN > 400 {
			quadN = 400 // 4-way evaluation is the costliest piece
		}
		quad, err := lab.Quads(quadN, opts.Seed)
		if err != nil {
			return err
		}
		return emit(experiments.RenderAblations(pa, pm, th, quad), map[string]any{
			"proposer_advantage":  pa,
			"prediction_matching": pm,
			"threshold":           th,
			"quads":               quad,
		})
	case "load":
		hours := 2.0
		if opts.Quick {
			hours = 0.5
		}
		points, err := lab.LoadSweep([]float64{100, 200, 400, 800, 1600}, hours, opts.Seed)
		if err != nil {
			return err
		}
		return emit(experiments.RenderLoadSweep(points), points)
	case "strategic":
		m, err := lab.Manipulation(opts.N, 5, opts.Seed)
		if err != nil {
			return err
		}
		churn, err := lab.Churn(opts.N, 6, 0.2, opts.Seed)
		if err != nil {
			return err
		}
		return emit(experiments.RenderStrategic(m, churn), map[string]any{
			"manipulation": m,
			"churn":        churn,
		})
	case "shapley":
		samples := 2000
		if opts.Quick {
			samples = 300
		}
		res, err := lab.ShapleyAttributionStudy(samples, 20, opts.Seed)
		if err != nil {
			return err
		}
		return emit(experiments.RenderShapley(res), res)
	case "efficiency":
		rows, err := lab.EfficiencyStudy(opts.N, opts.Seed)
		if err != nil {
			return err
		}
		return emit(experiments.RenderEfficiency(rows), rows)
	case "hetero":
		res, err := lab.Heterogeneity(opts.N, opts.Seed)
		if err != nil {
			return err
		}
		return emit(experiments.RenderHeterogeneity(res), res)
	case "all":
		for _, exp := range Names() {
			if exp == "all" || exp == "fig1" {
				continue // fig1 is a subset of fig7
			}
			if !opts.JSON {
				fmt.Fprintf(w, "==== %s ====\n", exp)
			}
			if err := Run(w, lab, exp, opts); err != nil {
				return fmt.Errorf("%s: %w", exp, err)
			}
			if !opts.JSON {
				fmt.Fprintln(w)
			}
		}
		return nil
	default:
		return fmt.Errorf("unknown experiment %q", name)
	}
}
