// Command cooperd runs Cooper's networked coordinator: it waits for a
// full epoch of agent registrations (see cooper-agent), assigns
// colocations with the configured policy, collects the agents' strategic
// assessments, and prints each epoch summary.
//
// Usage:
//
//	cooperd -addr 127.0.0.1:7077 -epoch 4 -epochs 1 -policy SMR
//
// With -metrics the daemon also serves live telemetry over HTTP:
//
//	/metrics        JSON snapshot; Prometheus text with Accept: text/plain
//	/metrics/prom   Prometheus text exposition, unconditionally
//	/debug/vars     expvar-style flat object (histograms flattened)
//	/debug/events   the flight recorder's retained tail as JSON lines
//	/debug/trace    the live span tree as Chrome trace_event JSON
//	/debug/pprof/   the standard net/http/pprof profiles
//
// A runtime sampler feeds runtime.* gauges (goroutines, heap, GC pause)
// into the same registry while the endpoint is up. With -events-out the
// full event stream — not just the ring's tail — is appended to a JSONL
// file as it is recorded. SIGINT or SIGTERM triggers a graceful
// shutdown: the listener closes, the in-flight epoch drains, and the
// framework is Closed — its worker pool shut down and in-flight work
// drained — before the final telemetry snapshot is printed.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"cooper/internal/arch"
	"cooper/internal/audit"
	"cooper/internal/core"
	"cooper/internal/faults"
	"cooper/internal/journey"
	"cooper/internal/netproto"
	"cooper/internal/policy"
	"cooper/internal/profiler"
	"cooper/internal/recommend"
	"cooper/internal/simcli"
	"cooper/internal/telemetry"
	"cooper/internal/workload"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7077", "listen address")
	epoch := flag.Int("epoch", 4, "agents per scheduling epoch")
	epochs := flag.Int("epochs", 1, "scheduling rounds before exiting")
	policyName := flag.String("policy", "SMR", "colocation policy (GR, CO, SMP, SMR, SR)")
	metricsAddr := flag.String("metrics", "",
		"serve telemetry over HTTP on this address (e.g. 127.0.0.1:7078); "+
			"empty disables the endpoint")
	profiles := flag.String("profiles", "",
		"measurement database from cooper-profile; penalties then come from "+
			"profiled data completed by the predictor instead of the oracle")
	cf := simcli.NewCommonFlags(flag.CommandLine).
		SeedWorkers().
		Events("").
		Chaos("every agent connection").
		ServerTimeouts().
		Audit().
		Market().
		Rematch().
		Approx()
	flag.Parse()
	seed, workers := cf.Seed, cf.Workers
	eventsOut, chaosSeed := cf.EventsOut, cf.ChaosSeed
	auditOn, auditAlpha := cf.AuditOn, cf.AuditAlpha

	pol, err := policy.ByName(*policyName)
	if err != nil {
		fatal(err)
	}

	// Seeding telemetry with the simulation seed makes every trace and
	// span ID a pure function of the run's configuration: two same-seed
	// runs stitch byte-identical traces.
	tel := telemetry.NewSeeded(*seed)
	var sinkFile *os.File
	if *eventsOut != "" {
		f, err := os.OpenFile(*eventsOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fatal(err)
		}
		sinkFile = f
		defer f.Close()
		tel.Events.SetSink(f)
		fmt.Printf("cooperd: recording events to %s\n", *eventsOut)
	}
	cfg := core.Config{
		Seed: *seed,
		Market: core.MarketConfig{
			Policy:           pol,
			Shards:           *cf.Shards,
			RefinementBudget: *cf.RefineBudget,
		},
		Pipeline: core.PipelineConfig{
			Oracle:  true,
			Workers: *workers,
		},
		Observe: core.ObserveConfig{Telemetry: tel},
	}
	kernel := "oracle"
	if *profiles != "" {
		// Complete the profiled sparse matrix out of band and hand the
		// framework the dense result; it then skips its own campaign.
		f, err := os.Open(*profiles)
		if err != nil {
			fatal(err)
		}
		db, err := profiler.Load(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		catalog, err := workload.Catalog(arch.DefaultCMP())
		if err != nil {
			fatal(err)
		}
		sparse, err := profiler.PenaltyMatrix(db, catalog)
		if err != nil {
			fatal(err)
		}
		pred := recommend.Default()
		pred.Workers = *workers
		pred.Approx = cf.ApproxConfig()
		kernel = pred.KernelName()
		penalties, _, err := pred.CompleteContext(context.Background(), sparse)
		if err != nil {
			fatal(err)
		}
		cfg.Pipeline.Oracle = false
		cfg.Pipeline.Penalties = penalties
		fmt.Printf("cooperd: predicted penalties from %d profiled records (%s kernel)\n",
			db.Len(), kernel)
	}

	fw, err := core.NewFramework(context.Background(), cfg)
	if err != nil {
		fatal(err)
	}
	defer fw.Close()

	reg := tel.Registry()
	srv := &netproto.Server{
		Epoch:            *epoch,
		Epochs:           *epochs,
		Policy:           pol,
		Catalog:          fw.Catalog(),
		Penalties:        fw.PredictedPenalties(),
		Kernel:           kernel,
		Seed:             *seed,
		Shards:           *cf.Shards,
		RefinementBudget: *cf.RefineBudget,
		Rematch:          *cf.RematchOn,
		ChurnThreshold:   *cf.ChurnThreshold,
		Workers:          *workers,
		Metrics:          reg,
		Events:           tel.Events,
		Span:             tel.Trace,
		StabilityAlpha:   *auditAlpha,
		AuditStability:   *auditAlpha >= 0,
		ReadTimeout:      *cf.ReadTimeout,
		WriteTimeout:     *cf.WriteTimeout,
		EpochTimeout:     *cf.EpochTimeout,
		OnEpoch: func(e int, sum netproto.Message) {
			fmt.Printf("cooperd: epoch %d done: mean penalty %.4f, %d break-aways, %d participating\n",
				e, sum.MeanPenalty, sum.BreakAways, sum.Participating)
		},
	}
	if *cf.RematchOn {
		fmt.Println("cooperd: streaming market enabled: mid-epoch joins and departures repaired incrementally")
	}
	if *chaosSeed != 0 {
		srv.Faults = faults.NewPlan(faults.Hostile(*chaosSeed), reg, nil)
		fmt.Printf("cooperd: CHAOS MODE: injecting faults on every connection (seed %d)\n", *chaosSeed)
	}

	// The journey builder rides the same observer hook as the auditor:
	// every coordinator event folds into per-agent timelines the
	// /debug/journey endpoints serve live.
	jb := journey.NewBuilder()
	tel.Events.AddObserver(jb.Observe)

	var auditor *audit.Auditor
	if *auditOn {
		// The live auditor rides the flight recorder's observer hook:
		// every coordinator event flows through the invariant engine, and
		// each violation loops back into the same stream (Feed hands it
		// over after releasing its lock, and the event type is outside the
		// epoch state machine, so this cannot recurse) plus the
		// audit.violations counters cooper-top surfaces.
		reg.Counter("audit.violations")
		auditor = audit.New(audit.Options{OnViolation: func(v audit.Violation) {
			reg.Counter("audit.violations").Inc()
			reg.Counter("audit.violations." + v.Invariant).Inc()
			tel.Events.Record(v.Event())
			fmt.Fprintln(os.Stderr, "cooperd: audit:", v)
		}})
		tel.Events.AddObserver(auditor.Feed)
		fmt.Println("cooperd: live invariant auditor armed")
	}

	if *metricsAddr != "" {
		sampler := telemetry.StartRuntimeSampler(reg, 0)
		defer sampler.Stop()
		go func() {
			if err := http.ListenAndServe(*metricsAddr, metricsMux(tel, jb)); err != nil {
				fmt.Fprintln(os.Stderr, "cooperd: metrics endpoint:", err)
			}
		}()
		fmt.Printf("cooperd: telemetry on http://%s/metrics\n", *metricsAddr)
	}

	// Graceful shutdown: close the listener, drain the in-flight epoch,
	// then drain the framework's worker pool.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		sig := <-sigs
		fmt.Printf("cooperd: %s received, draining\n", sig)
		srv.Shutdown()
		fw.Close()
	}()

	err = srv.Serve(*addr, func(bound string) {
		fmt.Printf("cooperd: coordinating %d-agent epochs on %s with %s (%d workers)\n",
			*epoch, bound, pol.Name(), fw.Workers())
	})
	switch err {
	case nil:
		fmt.Println("cooperd: all epochs complete")
	case netproto.ErrServerClosed:
		fmt.Println("cooperd: shut down cleanly")
	default:
		fatal(err)
	}

	fmt.Println("cooperd: final telemetry snapshot")
	if err := reg.WriteJSON(os.Stdout); err != nil {
		fatal(err)
	}

	code := 0
	if auditor != nil {
		rep := auditor.Finish()
		fmt.Printf("cooperd: audit: %d events, %d epochs, %d violations\n",
			rep.Events, rep.Epochs, len(rep.Violations))
		if !rep.OK() {
			code = 1
		}
	}
	if sinkFile != nil {
		// The sink latches its first write error rather than failing the
		// epoch loop; a silent exit 0 here would let CI trust a truncated
		// log. Surface it and exit non-zero.
		if err := tel.Events.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "cooperd: event sink %s failed mid-run: %v — the JSONL log is incomplete, exiting non-zero\n",
				*eventsOut, err)
			code = 1
		}
	}
	if code != 0 {
		fw.Close()
		sinkFile.Close()
		os.Exit(code)
	}
}

// metricsMux builds the telemetry HTTP handler: /metrics serves the full
// JSON snapshot (or Prometheus text when the Accept header asks for
// text/plain), /metrics/prom the Prometheus exposition unconditionally,
// /debug/vars the expvar-style flat object, /debug/events the flight
// recorder's retained tail as JSON lines (?n= trims to the newest n,
// default 256, ?n=0 the whole retained tail),
// /debug/trace the live span tree as Chrome trace_event JSON,
// /debug/journey?agent=N one agent's live journey (?n= trims to the
// newest n steps, newest first, like /debug/events; unknown agents get
// a JSON 404), /debug/journeys/slowest the n worst admit waits, and
// /debug/pprof/ the standard runtime profiles. jb may be nil (journeys
// disabled); the journey endpoints then know no agents.
func metricsMux(tel *telemetry.Telemetry, jb *journey.Builder) *http.ServeMux {
	reg := tel.Registry()
	servePlain := func(w http.ResponseWriter) {
		w.Header().Set("Content-Type", telemetry.PrometheusContentType)
		if err := reg.WritePrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if wantsText(r.Header.Get("Accept")) {
			servePlain(w)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := reg.WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/metrics/prom", func(w http.ResponseWriter, _ *http.Request) {
		servePlain(w)
	})
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := reg.WriteExpvar(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/events", func(w http.ResponseWriter, r *http.Request) {
		ring := tel.EventRing()
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc := json.NewEncoder(w)
		// Default to the newest 256 events so a bare curl stays bounded
		// even with a large ring; ?n=0 explicitly asks for the whole
		// retained tail.
		n := 256
		if q := r.URL.Query().Get("n"); q != "" {
			if v, err := strconv.Atoi(q); err == nil {
				n = v
			}
		}
		for _, e := range ring.Tail(n) {
			if err := enc.Encode(e); err != nil {
				return
			}
		}
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, _ *http.Request) {
		var root *telemetry.SpanSnapshot
		if tel != nil {
			root = tel.Trace.Snapshot()
		}
		if root == nil {
			http.Error(w, "no trace", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := telemetry.WriteChromeTrace(w, root); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	jsonError := func(w http.ResponseWriter, code int, format string, args ...any) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
	}
	// queryN parses ?n= with a default, mirroring /debug/events: absent
	// means def, 0 means unbounded.
	queryN := func(r *http.Request, def int) int {
		if q := r.URL.Query().Get("n"); q != "" {
			if v, err := strconv.Atoi(q); err == nil {
				return v
			}
		}
		return def
	}
	mux.HandleFunc("/debug/journey", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query().Get("agent")
		if q == "" {
			jsonError(w, http.StatusBadRequest, "missing agent parameter; try /debug/journey?agent=0")
			return
		}
		agent, err := strconv.Atoi(q)
		if err != nil {
			jsonError(w, http.StatusBadRequest, "bad agent %q: %v", q, err)
			return
		}
		j, ok := jb.Journey(agent)
		if !ok {
			jsonError(w, http.StatusNotFound, "agent %d unknown", agent)
			return
		}
		// Bounded like /debug/events: the newest n steps, newest first, so
		// a long-lived agent's curl stays small and leads with the latest
		// transition.
		n := queryN(r, 256)
		for i, k := 0, len(j.Steps)-1; i < k; i, k = i+1, k-1 {
			j.Steps[i], j.Steps[k] = j.Steps[k], j.Steps[i]
		}
		if n > 0 && len(j.Steps) > n {
			j.Steps = j.Steps[:n]
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(j)
	})
	mux.HandleFunc("/debug/journeys/slowest", func(w http.ResponseWriter, r *http.Request) {
		n := queryN(r, 10)
		if n <= 0 {
			n = -1 // unbounded
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(jb.Slowest(n))
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// wantsText reports whether an Accept header prefers a text/plain
// exposition over the default JSON: it names text/plain (or text/*)
// without also asking for JSON earlier in the list.
func wantsText(accept string) bool {
	for _, part := range strings.Split(accept, ",") {
		mt := strings.TrimSpace(strings.SplitN(part, ";", 2)[0])
		switch mt {
		case "application/json":
			return false
		case "text/plain", "text/*":
			return true
		}
	}
	return false
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cooperd:", err)
	os.Exit(1)
}
