package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"cooper"
	"cooper/internal/arch"
	"cooper/internal/netproto"
	"cooper/internal/profiler"
	"cooper/internal/shard"
	"cooper/internal/telemetry"
	"cooper/internal/workload"
)

// The wire workloads drive a live coordinator over loopback TCP with one
// netproto.Client per agent — the repository's own client, so the
// benchmark survives a wire-format change. The generator is this process
// pinned to one thread (goroutines parked on the netpoller); the
// coordinator gets the remaining cores.

// wireEnv is what every agent of one coordinator shares.
type wireEnv struct {
	addr    string
	check   bool
	jobRow  map[string]int
	matrix  [][]float64 // cooperd serves the oracle: the analytic job-level penalties
	catalog []workload.Job

	mu   sync.Mutex
	live map[*netproto.Client]struct{}
}

func newWireEnv(addr string, check bool) (*wireEnv, error) {
	machine := arch.DefaultCMP()
	catalog, err := workload.Catalog(machine)
	if err != nil {
		return nil, err
	}
	env := &wireEnv{addr: addr, check: check, catalog: catalog,
		jobRow: make(map[string]int, len(catalog)),
		matrix: profiler.DensePenalties(machine, catalog),
		live:   make(map[*netproto.Client]struct{})}
	for i, j := range catalog {
		env.jobRow[j.Name] = i
	}
	return env, nil
}

func (env *wireEnv) track(c *netproto.Client, on bool) {
	env.mu.Lock()
	if on {
		env.live[c] = struct{}{}
	} else {
		delete(env.live, c)
	}
	env.mu.Unlock()
}

// closeAll hangs up every live agent.
func (env *wireEnv) closeAll() {
	env.mu.Lock()
	for c := range env.live {
		c.Close()
	}
	env.mu.Unlock()
}

// agentEpoch is one scheduling epoch as one agent saw it.
type agentEpoch struct {
	seq       int     // assignment round the agent's standing assignment came from
	partner   int     // wire AgentID, -1 alone
	assignMS  float64 // from ready (join due; previous summary) to receipt of the assignment
	summaryAt time.Time
	closed    bool // the summary arrived; false when the agent left mid-epoch
	penalty   float64
	headcount int // participating + break_aways of the summary
}

// wireAgent is one loopback agent: its connection, and what it observed.
type wireAgent struct {
	job   string
	due   time.Time // when it was due to join; zero for agents registered in set-up
	leave time.Time // when it hangs up; zero stays until the coordinator closes
	keep  bool      // traced run: keep this agent's spans for the trace

	c      *netproto.Client
	id     int
	ready  time.Time
	dialMS float64
	lateMS float64
	epochs []agentEpoch
	spans  []*telemetry.SpanSnapshot
	bad    []string
	err    error
}

// dial connects and registers.
func (a *wireAgent) dial(env *wireEnv) error {
	root := telemetry.NewSpan("agent")
	start := time.Now()
	if !a.due.IsZero() {
		a.lateMS = ms(start.Sub(a.due))
	}
	a.c, a.err = netproto.DialWith(env.addr, a.job, netproto.DialOptions{Span: root})
	a.dialMS = ms(time.Since(start))
	if a.err != nil {
		return a.err
	}
	root.Finish()
	if a.keep {
		a.spans = append(a.spans, root.Snapshot())
	}
	a.id = a.c.AgentID
	a.ready = time.Now()
	if !a.due.IsZero() {
		a.ready = a.due
	}
	env.track(a.c, true)
	return nil
}

// serve plays epochs until the connection ends: closed by the coordinator
// at shutdown, or by the agent's own lifetime.
func (a *wireAgent) serve(env *wireEnv) {
	defer env.track(a.c, false)
	defer a.c.Close()
	if !a.leave.IsZero() {
		t := time.AfterFunc(time.Until(a.leave), func() { a.c.Close() })
		defer t.Stop()
	}
	for {
		// The client's own spans carry the instant the assignment arrived:
		// RunEpoch returns only at the summary.
		sp := telemetry.NewSpan("agent")
		a.c.Span = sp
		called := time.Now()
		asg, sum, err := a.c.RunEpoch()
		now := time.Now()
		sp.Finish()
		wait := ms(called.Sub(a.ready)) + ms(sp.Find("await_assignment").Duration())
		var snap *telemetry.SpanSnapshot
		if a.keep || err != nil {
			snap = sp.Snapshot()
		}
		if a.keep {
			a.spans = append(a.spans, snap)
		}
		if err != nil {
			// Hung up mid-epoch. The epoch still counts if its assignment
			// had arrived: RunEpoch stamps the partner on its epoch span.
			if len(snap.Children) > 0 {
				for _, at := range snap.Children[0].Attrs {
					if at.Key == "partner" {
						a.epochs = append(a.epochs, agentEpoch{seq: -1, partner: -1, assignMS: wait})
					}
				}
			}
			return
		}
		a.epochs = append(a.epochs, agentEpoch{
			seq: asg.Seq, partner: asg.PartnerID, assignMS: wait, summaryAt: now, closed: true,
			penalty: sum.MeanPenalty, headcount: sum.Participating + sum.BreakAways,
		})
		a.ready = now
		if env.check {
			a.checkAssignment(env, asg)
		}
	}
}

// checkAssignment verifies the predicted penalty against the job-level
// matrix lookup for this agent's job and its partner's.
func (a *wireAgent) checkAssignment(env *wireEnv, asg netproto.Message) {
	if len(a.bad) >= maxProblems {
		return
	}
	want := 0.0
	if asg.PartnerID >= 0 {
		row, ok := env.jobRow[asg.PartnerJob]
		if !ok {
			a.bad = append(a.bad, fmt.Sprintf("agent %d: partner job %q is not in the catalog", a.id, asg.PartnerJob))
			return
		}
		want = env.matrix[env.jobRow[a.job]][row]
	}
	if asg.PredictedPenalty != want {
		a.bad = append(a.bad, fmt.Sprintf("agent %d (%s) with %d (%s): predicted penalty %v, matrix says %v",
			a.id, a.job, asg.PartnerID, asg.PartnerJob, asg.PredictedPenalty, want))
	}
}

// checkSymmetry verifies partner symmetry: within one assignment round, A's
// assignment names B if and only if B's names A. Assignments of different
// rounds are not compared (a repair re-pushes only to agents it moved).
func checkSymmetry(m *measurement, agents []*wireAgent) {
	type pair struct{ agent, partner int }
	rounds := make(map[int][]pair)
	for _, a := range agents {
		for _, e := range a.epochs {
			if e.closed {
				rounds[e.seq] = append(rounds[e.seq], pair{a.id, e.partner})
			}
		}
	}
	for seq, pairs := range rounds {
		partnerOf := make(map[int]int, len(pairs))
		for _, p := range pairs {
			partnerOf[p.agent] = p.partner
		}
		for _, p := range pairs {
			if p.partner < 0 {
				continue
			}
			if back, seen := partnerOf[p.partner]; seen && back != p.agent {
				m.failf("round %d: agent %d names %d, but %d names %d", seq, p.agent, p.partner, p.partner, back)
			}
		}
	}
}

// wireInst is a coordinator with its base population registered.
type wireInst struct {
	cfg       *config
	tr        *tracer
	stream    bool
	coord     coordinator
	env       *wireEnv
	base      []*wireAgent
	rng       *rand.Rand
	prevProcs int
	codecUS   float64
	stopped   bool
}

func setupWireBatch(cfg *config, tr *tracer) (instance, error) {
	return setupWire(cfg, tr, false)
}
func setupWireStream(cfg *config, tr *tracer) (instance, error) {
	return setupWire(cfg, tr, true)
}

// setupWire starts the coordinator and registers the base population one
// agent at a time, so that wire AgentIDs — and with them the roster every
// epoch clears — are fixed by the seed.
func setupWire(cfg *config, tr *tracer, stream bool) (instance, error) {
	in := &wireInst{cfg: cfg, tr: tr, stream: stream, rng: rand.New(rand.NewSource(cfg.seed))}
	var err error
	in.coord, err = startCoordinator(cfg.cooperd, coordOptions{
		workload: cfg.workload, agents: cfg.sizes.WireAgents, shards: cfg.sizes.WireShards,
		rematch: stream, seed: programSeed, traced: tr != nil, outDir: cfg.outDir,
	})
	if err != nil {
		return nil, err
	}
	if in.env, err = newWireEnv(in.coord.addr(), cfg.check); err != nil {
		in.close()
		return nil, err
	}
	pop := evenPopulation(cfg.sizes.WireAgents, in.env.catalog, in.rng)
	if tr != nil {
		in.replayMarket(pop) // before the generator is pinned to one thread
		in.codecUS = replayCodec(tr)
		replayRecord(tr)
	}
	in.prevProcs = runtime.GOMAXPROCS(1)
	for i, job := range pop.Jobs {
		a := &wireAgent{job: job.Name, keep: tr != nil && i < 4}
		if err := a.dial(in.env); err != nil {
			in.close()
			return nil, fmt.Errorf("registering base agent %d: %w", i, err)
		}
		tr.observe("netproto.dial_ms_p50", a.dialMS)
		in.base = append(in.base, a)
	}
	return in, nil
}

// close stops a coordinator that was never measured and restores the
// scheduler setting. measure stops its own.
func (in *wireInst) close() error {
	if in.prevProcs > 0 {
		runtime.GOMAXPROCS(in.prevProcs)
	}
	if in.stopped || in.coord == nil {
		return nil
	}
	in.stopped = true
	if in.env != nil {
		in.env.closeAll()
	}
	_, err := in.coord.stop()
	return err
}

// replayMarket times the sharded clear (and, streaming, a repair around a
// handful of joiners) on the base roster, outside the coordinator.
func (in *wireInst) replayMarket(pop workload.Population) {
	jobIdx, err := populationRows(in.env.catalog, pop)
	if err != nil {
		return
	}
	sp := in.tr.root.Child("replay.market")
	defer sp.Finish()
	seeds := rand.New(rand.NewSource(in.cfg.seed + 1))
	scratch := telemetry.New() // cooperd's market always records
	market := func(call *telemetry.Span) *shard.Market {
		return &shard.Market{Shards: in.cfg.sizes.WireShards, Policy: cooper.SMR(),
			Workers: in.coord.procs(), Seed: seeds.Int63(), SkipRecommendations: in.stream,
			Tel: scratch, Span: call}
	}
	var res *shard.Result
	for r := 0; r < 15; r++ {
		in.tr.timedIn(sp, "shard.Market.Clear", "shard.clear_ms_p50", func(call *telemetry.Span) {
			res, err = market(call).Clear(context.Background(), pop.Jobs, jobIdx, in.env.matrix)
		})
		if err != nil {
			return
		}
	}
	in.tr.set("shard.imbalance", imbalance(res.Groups))
	in.tr.set("shard.refine_rounds", float64(res.RefinementRounds))
	in.tr.set("shard.refine_trades", float64(res.RefinementTrades))
	if !in.stream {
		return
	}
	// Five joiners arrive unmatched beside the cleared roster.
	const joiners = 5
	join := workload.Sample(joiners, in.env.catalog, cooper.Uniform(), seeds)
	jobs := append(append([]workload.Job(nil), pop.Jobs...), join.Jobs...)
	joinIdx, _ := populationRows(in.env.catalog, join)
	idx := append(append([]int(nil), jobIdx...), joinIdx...)
	prev := append(append([]int(nil), res.Match...), make([]int, joiners)...)
	dirty := make([]int, joiners)
	for k := range dirty {
		dirty[k] = len(pop.Jobs) + k
		prev[dirty[k]] = cooper.Unmatched
	}
	for r := 0; r < 15; r++ {
		in.tr.timedIn(sp, "shard.Market.Repair", "shard.repair_ms_p50", func(call *telemetry.Span) {
			market(call).Repair(context.Background(), jobs, idx, in.env.matrix, prev, dirty, 0)
		})
	}
}

func (in *wireInst) measure(d time.Duration) (*measurement, error) {
	m := &measurement{cooperdProcs: in.coord.procs(), generatorProcs: runtime.GOMAXPROCS(0),
		layer: make(map[string]float64)}
	var wg sync.WaitGroup
	start := func(a *wireAgent) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a.serve(in.env)
		}()
	}
	// Room for every epoch the window can hold, allocated before it opens:
	// a slice that doubles mid-window would show in alloc_mb_per_kagent.
	for _, a := range in.base {
		a.epochs = make([]agentEpoch, 0, int(d.Seconds()*100)+16)
	}
	w := openWindow(d)
	t0 := w.start
	cpu0 := in.coord.cpu()
	var joiners []*wireAgent
	if in.stream {
		// Base agents leave at seeded instants spread over one lifetime, so
		// the population holds near its base size from the first second.
		for _, a := range in.base {
			a.leave = t0.Add(time.Duration((1 - in.rng.Float64()) * float64(in.cfg.sizes.WireLifetime)))
		}
	}
	for _, a := range in.base {
		start(a)
	}
	if in.stream {
		joiners = in.generateJoins(t0, d, &wg)
		// Let the last joins be assigned before the coordinator goes away.
		time.Sleep(4 * in.cfg.sizes.JoinLimit)
	} else {
		time.Sleep(d)
	}
	w.close(m) // the generator's allocation: the agent side of the protocol
	cut := time.Now()

	in.stopped = true
	if in.stream {
		in.env.closeAll() // or the open epoch would wait out every lifetime
	}
	rep, err := in.coord.stop()
	in.env.closeAll()
	wg.Wait()
	if err != nil {
		return nil, err
	}
	m.rssMB = rep.rssMB
	m.cpu = rep.cpu - cpu0

	agents := append(append([]*wireAgent(nil), in.base...), joiners...)
	for _, a := range agents {
		for _, p := range a.bad {
			m.failf("%s", p)
		}
		for _, e := range a.epochs {
			if e.closed {
				m.penalty.add(e.penalty)
			}
		}
	}
	if in.cfg.check {
		checkSymmetry(m, agents)
	}
	if in.stream {
		in.accountStream(m, joiners, t0, cut)
	} else {
		in.accountBatch(m, cut)
	}
	in.exported(m, rep, agents)
	if in.tr != nil {
		in.traced(m, rep, agents, cut)
	}
	return m, nil
}

// generateJoins is the open loop: seeded Poisson arrivals at the rate that
// replaces the base population once per lifetime, each dialled when it is
// due whatever became of the earlier ones.
func (in *wireInst) generateJoins(t0 time.Time, d time.Duration, wg *sync.WaitGroup) []*wireAgent {
	rate := float64(in.cfg.sizes.WireAgents) / in.cfg.sizes.WireLifetime.Seconds()
	var joiners []*wireAgent
	for at := in.rng.ExpFloat64() / rate; at < d.Seconds(); at += in.rng.ExpFloat64() / rate {
		due := t0.Add(time.Duration(at * float64(time.Second)))
		job := in.env.catalog[in.rng.Intn(len(in.env.catalog))].Name
		joiners = append(joiners, &wireAgent{job: job, due: due, leave: due.Add(in.cfg.sizes.WireLifetime)})
	}
	for _, a := range joiners {
		time.Sleep(time.Until(a.due))
		wg.Add(1)
		go func(a *wireAgent) {
			defer wg.Done()
			if a.dial(in.env) == nil {
				a.serve(in.env)
			}
		}(a)
	}
	return joiners
}

// accountBatch turns the agents' lock-step epochs into the window's
// numbers. An epoch ends when its last agent has its summary; epoch 0
// absorbed the gap between set-up and the window and only opens it.
func (in *wireInst) accountBatch(m *measurement, cut time.Time) {
	n := len(in.base)
	closed := len(in.base[0].epochs)
	for _, a := range in.base {
		closed = min(closed, len(a.epochs))
	}
	var ends []time.Time
	for k := 0; k < closed; k++ {
		var end time.Time
		for _, a := range in.base {
			if e := a.epochs[k]; e.summaryAt.After(end) {
				end = e.summaryAt
			}
		}
		if end.After(cut) {
			closed = k // drained after the window
			break
		}
		ends = append(ends, end)
	}
	for _, a := range in.base {
		for k := 1; k < closed; k++ {
			m.alt.add(a.epochs[k].assignMS)
			if in.cfg.check && a.epochs[k].headcount != n {
				m.failf("agent %d epoch %d: participating + break_aways = %d, population %d", a.id, k, a.epochs[k].headcount, n)
			}
		}
	}
	for k := 1; k < closed; k++ {
		m.op.addDur(ends[k].Sub(ends[k-1]))
	}
	if closed < 2 {
		m.attempted = n
		m.failf("only %d epochs closed inside the window", closed)
		return
	}
	m.elapsed = ends[closed-1].Sub(ends[0])
	m.agents = float64(n * (closed - 1))
	m.attempted = n * (closed - 1) // one operation per agent-epoch
}

// accountStream: one operation per join. A join is timed from the instant
// it was due to the receipt of its first assignment; a join that could not
// dial, was refused, or saw no assignment failed.
func (in *wireInst) accountStream(m *measurement, joiners []*wireAgent, t0, cut time.Time) {
	m.elapsed = cut.Sub(t0)
	m.attempted = len(joiners)
	ok := 0
	var late samples
	for _, a := range joiners {
		late.add(a.lateMS)
		switch {
		case a.err != nil:
			m.failf("join due %+.3fs: %v", a.due.Sub(t0).Seconds(), a.err)
		case len(a.epochs) == 0:
			m.failf("join due %+.3fs (agent %d): no assignment", a.due.Sub(t0).Seconds(), a.id)
		default:
			m.op.add(a.epochs[0].assignMS)
			if a.epochs[0].assignMS <= ms(in.cfg.sizes.JoinLimit) {
				ok++
			}
		}
	}
	// The secondary: every later wait of a resident agent, from the summary
	// that closed one epoch to the assignment of the next full clear.
	for _, a := range in.base {
		for _, e := range a.epochs {
			m.alt.add(e.assignMS)
		}
		m.agents += float64(len(a.epochs))
	}
	for _, a := range joiners {
		for k, e := range a.epochs {
			if k > 0 {
				m.alt.add(e.assignMS)
			}
		}
		m.agents += float64(len(a.epochs))
	}
	m.layer["netproto.join_ok_share"] = float64(ok) / float64(max(1, len(joiners)))
	m.layer["gen_late_ms_p99"] = late.quantile(0.99)
}

// exported files what the coordinator itself exported — its final telemetry
// snapshot and its resource use — as per-layer values. It does so in every
// run; only the traced run reports them.
func (in *wireInst) exported(m *measurement, rep *coordReport, agents []*wireAgent) {
	snap := rep.snap
	epochs := float64(max(1, snap.Counter("epoch.count")))
	var msgs int64
	for _, prefix := range []string{"net.msg_in.", "net.msg_out."} {
		for _, v := range snap.CountersWithPrefix(prefix) {
			msgs += v
		}
	}
	var assign samples
	for _, a := range agents {
		for _, e := range a.epochs {
			assign.add(e.assignMS)
		}
	}
	admit := snap.Histogram("net.admit_wait")
	for name, v := range map[string]float64{
		"netproto.msgs_per_epoch":         float64(msgs) / epochs,
		"netproto.admit_wait_ms_p50":      admit.P50 * 1000,
		"netproto.admit_wait_ms_p99":      admit.P99 * 1000,
		"netproto.epoch_latency_ms_p50":   snap.Histogram("net.epoch_latency_s").P50 * 1000,
		"netproto.epochs_closed":          float64(snap.Counter("epoch.count")),
		"netproto.reaped":                 float64(snap.Counter("net.reaped")),
		"netproto.stale":                  float64(snap.Counter("net.stale")),
		"netproto.cpu_us_per_agent_epoch": float64(rep.cpu.Microseconds()) / float64(max(1, len(assign))),
		"netproto.assign_ms_p99":          assign.quantile(0.99),
		"rematch.repairs":                 float64(snap.Counter("rematch.repairs")),
		"rematch.fulls":                   float64(snap.Counter("rematch.fulls")),
		"matching.proposals_per_agent":    float64(snap.Counter("match.proposals")) / float64(max(1, len(assign))),
		"telemetry.events_dropped":        float64(snap.Counter("events.dropped")),
	} {
		m.layer[name] = v
	}
}

// traced audits the traced run's event log, attaches the sampled agents'
// client-side spans, and works out the wire residual: what is left of an
// epoch after the replayed clear, the codec and the flight recorder —
// framing, syscalls, the serial push and collect.
func (in *wireInst) traced(m *measurement, rep *coordReport, agents []*wireAgent, cut time.Time) {
	tr := in.tr
	if in.cfg.check {
		auditEvents(m, rep.events, cut)
	}
	for _, a := range agents {
		if len(a.spans) > 0 {
			root := &telemetry.SpanSnapshot{Name: fmt.Sprintf("agent %d", a.id), StartUnixUS: a.spans[0].StartUnixUS, Children: a.spans}
			last := a.spans[len(a.spans)-1]
			root.DurationUS = last.StartUnixUS + last.DurationUS - root.StartUnixUS
			tr.attach(root)
		}
	}
	eventsPerEpoch := float64(len(rep.events)) / float64(max(1, rep.snap.Counter("epoch.count")))
	tr.set("telemetry.events_per_epoch", eventsPerEpoch)

	// The epoch and its message count are the untraced leg's: writing the
	// event log slows the coordinator.
	base := in.cfg.baseline
	if base == nil {
		return
	}
	median := func(metric string) float64 {
		if t := tr.timings[metric]; t != nil {
			return t.median()
		}
		return 0
	}
	epochs := max(1, base.layer["netproto.epochs_closed"])
	epochMS := base.layer["netproto.epoch_latency_ms_p50"]
	if !in.stream {
		epochMS = base.op.median() // as the agents see it, summary to summary
	}
	// Every epoch opens with a full clear; a streaming epoch adds its
	// forced full clears and its repair rounds.
	marketMS := (1+base.layer["rematch.fulls"]/epochs)*median("shard.clear_ms_p50") +
		base.layer["rematch.repairs"]/epochs*median("shard.repair_ms_p50")
	codecMS := in.codecUS * base.layer["netproto.msgs_per_epoch"] / 1000
	recordMS := tr.values["telemetry.record_ns_per_event"] * eventsPerEpoch / 1e6
	tr.set("netproto.residual_ms", epochMS-marketMS-codecMS-recordMS)
}
