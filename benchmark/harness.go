package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"syscall"
	"time"

	"cooper/internal/workload"
)

// sizes fixes how big each workload is. committed is what BENCHMARK.json
// measures; bench_test.go runs the same code at smoke sizes.
type sizes struct {
	SetupReps int `json:"setup_reps"` // set-ups per run; setup_s is their median

	EpochAgents int `json:"epoch_agents"` // epoch-allpairs population

	StreamAgents int     `json:"stream_agents"` // stream-sharded population
	StreamShards int     `json:"stream_shards"`
	StreamChurn  float64 `json:"stream_churn"` // joins (and departures) per epoch, share of population

	CatalogJobs int `json:"catalog_jobs"` // predict-complete catalog
	// Floors the completed matrices must clear (paper Eq. 2 against the
	// dense truth): a kernel that gets faster by getting them wrong fails.
	ExactFloor  float64 `json:"exact_floor"`
	ApproxFloor float64 `json:"approx_floor"`

	WireAgents   int           `json:"wire_agents"` // wire-batch and wire-stream base population
	WireShards   int           `json:"wire_shards"`
	WireLifetime time.Duration `json:"wire_lifetime_ns"` // wire-stream: an agent leaves this long after it was due
	JoinLimit    time.Duration `json:"join_limit_ns"`    // wire-stream: a join is ok when assigned within this
}

var committed = sizes{
	SetupReps:    5,
	EpochAgents:  800,
	StreamAgents: 10000,
	StreamShards: 32,
	StreamChurn:  0.01,
	CatalogJobs:  600,
	ExactFloor:   0.89, // the committed catalog sits near 0.92 exact, 0.88 approximate
	ApproxFloor:  0.84,
	WireAgents:   1000,
	WireShards:   8,
	WireLifetime: 5 * time.Second,
	JoinLimit:    250 * time.Millisecond,
}

// programSeed seeds the program under test (cooper.WithSeed, cooperd -seed):
// its profiling noise, sampled colocations and SMR partitions. It is part of
// the program's configuration and held fixed; the run's -seed drives every
// generated input — populations, churn, arrivals, catalog, mask. Were both
// tied to -seed, the seed-to-seed spread of the predicted matrix (several
// per cent of mean_penalty) would drown what the inputs and the code do.
const programSeed = 1

// evenPopulation is the Uniform mix without its sampling noise: every
// catalog job equally often, in seeded order. A roster that stays for the
// whole run (the wire workloads' base agents, the stream's epoch 0) would
// otherwise carry one draw's composition into every epoch's mean penalty.
func evenPopulation(n int, catalog []workload.Job, r *rand.Rand) workload.Population {
	pop := workload.Population{Jobs: make([]workload.Job, n), Mix: "Uniform"}
	for i := range pop.Jobs {
		pop.Jobs[i] = catalog[i%len(catalog)]
	}
	r.Shuffle(n, func(a, b int) { pop.Jobs[a], pop.Jobs[b] = pop.Jobs[b], pop.Jobs[a] })
	return pop
}

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	check    bool
	cooperd  string // cooperd binary for the wire workloads; empty serves in-process
	outDir   string
	sizes    sizes
	// baseline is the traced run's untraced leg, for the traced leg to
	// compare itself against.
	baseline *measurement
}

// workloadDef is one named set of inputs. setup does everything that precedes
// the first measured operation; with a tracer it builds the traced variant
// (telemetry attached in-process, -events-out and -audit on cooperd).
type workloadDef struct {
	name  string
	why   string
	setup func(cfg *config, tr *tracer) (instance, error)
}

// instance is a set-up workload, ready to measure.
type instance interface {
	// measure runs operations back to back (or on schedule) for d.
	measure(d time.Duration) (*measurement, error)
	close() error
}

var workloads = []workloadDef{
	{"epoch-allpairs", "closed loop, 1 caller: RunEpoch over fresh n=800 populations, unsharded, SMR then SMP; the n x n expand/match/exchange path does all the work, where class-quotient penalties must show", setupEpoch},
	{"stream-sharded", "closed loop, 1 caller: StreamEpoch with 1% churn at n=10000 over 32 shards; shard+rematch do the work and no n x n matrix exists, so an all-pairs optimisation predicts no change", setupStream},
	{"predict-complete", "Predictor.Complete on a 600-job analytic penalty matrix at 25% pairs, exact then approx; the only workload where recommend dominates, with accuracy checked beside time", setupPredict},
	{"wire-batch", "live cooperd, 1000 loopback agents in lock-step epochs over 8 shards; the clear is cheap, so framing, 3 messages per agent-epoch and serial push/collect decide the epoch", setupWireBatch},
	{"wire-stream", "live cooperd -rematch, open loop: Poisson joins at 200/s against 1000 agents that each leave after 5 s; admission queue, reaping, repair and forced full clears under arrivals", setupWireStream},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// measurement is what one measured window produced.
type measurement struct {
	checker
	elapsed   time.Duration
	op, alt   samples       // ms per primary / secondary operation
	agents    float64       // agent units completed (see README: agents_per_s)
	attempted int           // operations, primary and secondary
	cpu       time.Duration // CPU of the process under test over the window
	rssMB     float64       // peak RSS of the process under test
	penalty   samples       // mean penalty per operation that has one
	allocMB   float64       // this process's TotalAlloc over the window (wire: the agent side)
	gcPauseMS float64
	digest    string
	// layer holds per-layer values read from what the process under test
	// itself exported (cooperd's final telemetry snapshot); filled on the
	// wire workloads, traced or not.
	layer map[string]float64

	// Wire workloads only: the GOMAXPROCS the coordinator and the generator
	// (this process, pinned for the window) ran with.
	cooperdProcs, generatorProcs int
}

// failed counts each operation that errored or failed a check once.
func (m *measurement) failed() int { return min(m.failures, m.attempted) }

// selfCPU returns this process's user+system CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// selfPeakRSSMB returns this process's peak resident set (Linux: KiB).
func selfPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// window brackets an in-process measured window: wall time, allocation and
// GC pause of the harness process, which is the process under test.
type window struct {
	start time.Time
	end   time.Time
	mem   runtime.MemStats
	cpu   time.Duration
}

func openWindow(d time.Duration) *window {
	w := &window{cpu: selfCPU()}
	runtime.ReadMemStats(&w.mem)
	w.start = time.Now()
	w.end = w.start.Add(d)
	return w
}

func (w *window) open() bool { return time.Now().Before(w.end) }

func (w *window) close(m *measurement) {
	m.elapsed = time.Since(w.start)
	m.cpu = selfCPU() - w.cpu
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	m.allocMB = mib(mem.TotalAlloc - w.mem.TotalAlloc)
	m.gcPauseMS = float64(mem.PauseTotalNs-w.mem.PauseTotalNs) / 1e6
	m.rssMB = selfPeakRSSMB()
}

// timedOp runs one primary operation, timedAlt one secondary.
func (m *measurement) timedOp(fn func() error) (time.Duration, error)  { return m.timed(&m.op, fn) }
func (m *measurement) timedAlt(fn func() error) (time.Duration, error) { return m.timed(&m.alt, fn) }

func (m *measurement) timed(into *samples, fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	d := time.Since(start)
	m.attempted++
	into.addDur(d)
	return d, err
}

// run is one invocation of the benchmark on one workload.
func run(cfg *config) (*result, error) {
	w, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.trace {
		return runTraced(cfg, w)
	}
	res := newResult(cfg)

	// Set up several times and report the median: one set-up is too short
	// to be steady. The last instance is the one measured.
	var (
		inst   instance
		setups samples
	)
	for r := 0; r < max(1, cfg.sizes.SetupReps); r++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, fmt.Errorf("closing set-up %d: %w", r-1, err)
			}
		}
		start := time.Now()
		var err error
		inst, err = w.setup(cfg, nil)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups.add(time.Since(start).Seconds())
	}
	m, err := inst.measure(cfg.window)
	if cerr := inst.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	res.absorb(m)
	res.put("setup_s", setups.median(), len(setups))
	res.put("agents_per_s", m.agents/m.elapsed.Seconds(), 0)
	res.put("op_ms_p50", m.op.median(), len(m.op))
	res.put("op_ms_p90", m.op.quantile(0.9), len(m.op))
	res.put("alt_ms_p50", m.alt.median(), len(m.alt))
	res.put("cpu_ms_per_kagent", 1000*ms(m.cpu)/m.agents, 0)
	res.put("alloc_mb_per_kagent", 1000*m.allocMB/m.agents, 0)
	res.put("mean_penalty", m.penalty.mean(), len(m.penalty))
	return res, nil
}

// runTraced is the separate traced run: a short untraced leg for the
// tracing overhead, then the traced leg with layer replay. It reports the
// per-layer metrics and writes the Chrome trace.
func runTraced(cfg *config, w workloadDef) (*result, error) {
	res := newResult(cfg)

	plain, err := w.setup(cfg, nil)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	base, err := plain.measure(cfg.window * 2 / 5)
	if cerr := plain.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("untraced leg: %w", err)
	}

	cfg.baseline = base
	tr := newTracer(w.name, cfg.seed)
	inst, err := w.setup(cfg, tr)
	if err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	m, err := inst.measure(cfg.window * 3 / 5)
	if cerr := inst.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("traced leg: %w", err)
	}
	res.absorb(base)
	res.absorb(m)

	if b := base.op.median(); b > 0 {
		tr.set("telemetry.overhead_share", m.op.median()/b-1)
	}
	// The process numbers come from the untraced leg: the traced one also
	// pays for the replays.
	tr.set("process.alloc_mb_per_kagent", 1000*base.allocMB/base.agents)
	tr.set("process.gc_pause_ms", base.gcPauseMS)
	tr.set("process.peak_rss_mb", base.rssMB)
	// cooperd exports its counters in every run; the untraced leg's are the
	// ones that describe the stock configuration.
	for name, v := range m.layer {
		tr.set(name, v)
	}
	for name, v := range base.layer {
		tr.set(name, v)
	}
	for _, s := range perLayer {
		if t := tr.timings[s.Name]; t != nil {
			res.put(s.Name, t.median(), len(*t))
		} else {
			res.put(s.Name, tr.values[s.Name], 0)
		}
	}
	res.TracePath, res.Layers, err = tr.write(cfg.outDir, w.name)
	return res, err
}
