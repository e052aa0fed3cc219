// Command cooper-sim regenerates the paper's tables and figures on the
// simulated cluster, plus this reproduction's extension studies. Each
// subcommand reproduces one artifact; "all" runs the full evaluation.
//
// Usage:
//
//	cooper-sim [flags] <experiment>
//
// Experiments: table1, fig1, fig2, fig5, fig7, fig8, fig9, fig10, fig11,
// fig12, fig13, fig14, ablations, load, strategic, shapley, all.
//
// Flags:
//
//	-n      population size (default 1000, the paper's scale)
//	-pops   populations for multi-population experiments (default: paper's)
//	-seed   RNG seed (default 1)
//	-quick  scale everything down for a fast smoke run
//	-workers worker pool bound for pipeline fan-outs (0 = GOMAXPROCS,
//	        1 = serial; results are identical at any value)
//	-json   emit results as JSON instead of text renderings
//	-trace  run one instrumented pipeline pass and print its span tree,
//	        phase timings, penalty histogram, and work counters
//	        (no experiment argument needed)
//	-trace-out  with -trace, also export the span tree as Chrome
//	        trace_event JSON for Perfetto / chrome://tracing
//	-epochs     with -trace, scheduling epochs to run (fresh population each)
//	-events-out with -trace, append the flight-recorder event stream to a
//	        JSONL file, replayable and auditable with cooper-replay
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"cooper/internal/experiments"
	"cooper/internal/simcli"
)

func main() {
	n := flag.Int("n", 1000, "population size (agents per epoch)")
	pops := flag.Int("pops", 0, "number of populations (0 = per-figure paper default)")
	quick := flag.Bool("quick", false, "scale experiments down for a fast run")
	jsonOut := flag.Bool("json", false, "emit results as JSON")
	trace := flag.Bool("trace", false,
		"run one instrumented pipeline pass and print its telemetry")
	traceOut := flag.String("trace-out", "",
		"with -trace, also export the span tree as Chrome trace_event JSON "+
			"to this file (open in ui.perfetto.dev or chrome://tracing)")
	epochs := flag.Int("epochs", 1,
		"with -trace, scheduling epochs to run, each over a freshly "+
			"sampled population")
	cf := simcli.NewCommonFlags(flag.CommandLine).SeedWorkers().Events("with -trace, ")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: cooper-sim [flags] <experiment>\n\n"+
			"experiments: %s\n\nflags:\n", strings.Join(simcli.Names(), " "))
		flag.PrintDefaults()
	}
	flag.Parse()
	seed, workers := cf.Seed, cf.Workers

	if *trace {
		opts := simcli.Options{N: *n, Pops: *pops, Seed: *seed, Quick: *quick,
			Workers: *workers, JSON: *jsonOut, TraceOut: *traceOut,
			Epochs: *epochs, EventsOut: *cf.EventsOut}
		if *n == 1000 {
			opts.N = 64 // tracing one epoch needs no paper-scale population
		}
		if err := simcli.Trace(os.Stdout, opts); err != nil {
			fatal(err)
		}
		return
	}
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}

	lab, err := experiments.NewLab()
	if err != nil {
		fatal(err)
	}
	opts := simcli.Options{N: *n, Pops: *pops, Seed: *seed, Quick: *quick, Workers: *workers, JSON: *jsonOut}
	if err := simcli.Run(os.Stdout, lab, flag.Arg(0), opts); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cooper-sim:", err)
	os.Exit(1)
}
