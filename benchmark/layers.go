package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"runtime"

	"cooper"
	"cooper/internal/arch"
	"cooper/internal/cluster"
	"cooper/internal/matching"
	"cooper/internal/netproto"
	"cooper/internal/profiler"
	"cooper/internal/recommend"
	"cooper/internal/telemetry"
	"cooper/internal/workload"
)

// Layer replay: no program file may change, so layers are measured from
// outside. The traced run times each package's public call on the
// workload's own inputs and reads counters the program already exports.
// This file holds the replays that more than one workload shares.

// replayBuild times the pieces cooper.New runs once: the analytic dense
// matrix, the profiling campaign, the sparse matrix and its completion.
func replayBuild(tr *tracer, seed int64, catalog []workload.Job) {
	if tr == nil {
		return
	}
	machine := arch.DefaultCMP()
	sp := tr.root.Child("replay.build")
	defer sp.Finish()

	tr.timed(sp, "profiler.DensePenalties", "profiler.dense_ms", func() {
		profiler.DensePenaltiesContext(context.Background(), machine, catalog, 0, nil)
	})
	// The campaign as core.NewFramework configures it.
	db := profiler.NewDatabase()
	prof := profiler.New(machine, db, seed+1)
	prof.Sim = arch.SimConfig{DurationS: 30, StepS: 1, PhaseNoise: 0.05, PhaseCorr: 0.6}
	tr.timed(sp, "profiler.Campaign", "profiler.campaign_ms", func() {
		prof.CampaignContext(context.Background(), catalog, 0.25)
	})
	tr.set("profiler.campaign_runs", float64(db.Len()))
	var sparse [][]float64
	tr.timed(sp, "profiler.PenaltyMatrix", "profiler.penalty_matrix_ms", func() {
		sparse, _ = profiler.PenaltyMatrix(db, catalog)
	})
	if sparse != nil {
		replayComplete(tr, sp, recommend.Default(), sparse, "recommend.complete_ms_p50")
	}
	replayPairSolve(tr, sp, machine, catalog)
}

// replayComplete times one Predictor.Complete and files the predictor's
// own work counters.
func replayComplete(tr *tracer, parent *telemetry.Span, pred recommend.Predictor, sparse [][]float64, metric string) ([][]float64, error) {
	reg := telemetry.NewRegistry()
	pred.Metrics = reg
	var (
		out   [][]float64
		iters int
		err   error
	)
	tr.timed(parent, "recommend.Complete["+pred.KernelName()+"]", metric, func() {
		out, iters, err = pred.Complete(sparse)
	})
	if tr != nil && err == nil {
		snap := reg.Snapshot()
		tr.set("recommend.fill_iters", float64(iters))
		tr.set("recommend.sim_pairs_recomputed", float64(snap.Counter("predict.sim_pairs_recomputed")))
		if scored := snap.Counter("predict.candidates_scored"); scored > 0 {
			tr.set("recommend.candidates_scored", float64(scored))
			tr.set("recommend.candidates_skipped", float64(snap.Counter("predict.candidates_skipped")))
		}
	}
	return out, err
}

// replayPairSolve times the contention solver behind every penalty.
func replayPairSolve(tr *tracer, parent *telemetry.Span, machine arch.CMP, catalog []workload.Job) {
	const solves = 256
	d := tr.timed(parent, "arch.Pair", "", func() {
		for k := 0; k < solves; k++ {
			a, b := catalog[k%len(catalog)], catalog[(k/len(catalog)+k)%len(catalog)]
			machine.Pair(a.Model, b.Model)
		}
	})
	tr.set("arch.pair_solve_us", float64(d.Microseconds())/solves)
}

// replayRecord times the flight recorder's Record, which cooperd pays per
// event whether or not anyone reads the ring.
func replayRecord(tr *tracer) {
	if tr == nil {
		return
	}
	const events = 100000
	ring := telemetry.NewEventRing(0)
	d := tr.timed(nil, "telemetry.EventRing.Record", "", func() {
		for k := 0; k < events; k++ {
			ring.Record(telemetry.Event{Type: telemetry.EventPairMatched, Epoch: k, Agent: k, Partner: k + 1, Job: "dedup", Predicted: 0.1})
		}
	})
	tr.set("telemetry.record_ns_per_event", float64(d.Nanoseconds())/events)
}

// replayCodec times encoding and decoding one assignment message the way
// netproto frames it (encoding/json, one object per line).
func replayCodec(tr *tracer) float64 {
	if tr == nil {
		return 0
	}
	const msgs = 20000
	msg := netproto.Message{Type: "assignment", Seq: 17, PartnerID: 531, PartnerJob: "correlation", PredictedPenalty: 0.0731, Shard: 3}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	dec := json.NewDecoder(&buf)
	d := tr.timed(nil, "netproto.Message codec", "", func() {
		for k := 0; k < msgs; k++ {
			var got netproto.Message
			enc.Encode(msg)
			dec.Decode(&got)
		}
	})
	us := float64(d.Microseconds()) / msgs
	tr.set("netproto.codec_us_per_msg", us)
	return us
}

// telemetryCounts files what the program's own telemetry recorded over
// epochs operations: events per epoch, ring overflow, matching work.
func telemetryCounts(tr *tracer, f *cooper.Framework, epochs int, agentEpochs float64) {
	tel := f.Telemetry()
	if tr == nil || tel == nil || epochs == 0 {
		return
	}
	snap := f.Snapshot()
	if evs := tel.Events.Events(); len(evs) > 0 {
		tr.set("telemetry.events_per_epoch", float64(evs[len(evs)-1].Seq+1)/float64(epochs))
	}
	tr.set("telemetry.events_dropped", float64(tel.Events.Dropped()))
	tr.set("matching.proposals_per_agent", float64(snap.Counter("match.proposals"))/agentEpochs)
	tr.set("matching.rotations", float64(snap.Counter("match.rotations")))
	tr.set("rematch.repairs", float64(snap.Counter("rematch.repairs")))
	tr.set("rematch.fulls", float64(snap.Counter("rematch.fulls")))
	tr.set("arch.paircache_hit_rate", f.PairCache().HitRate())
	tr.attach(snap.Trace)
}

// dispatcher replays the cluster layer on a matching.
type dispatcher struct {
	cl *cluster.Cluster
}

func newDispatcher(machine arch.CMP, cache *arch.PairCache) (*dispatcher, error) {
	cl, err := cluster.New(10, machine) // core.Config's default cluster size
	if err != nil {
		return nil, err
	}
	cl.SetPairCache(cache)
	return &dispatcher{cl: cl}, nil
}

func (d *dispatcher) dispatch(jobs []workload.Job, match matching.Matching) {
	d.cl.Reset()
	var batch []cluster.Assignment
	for i, j := range match {
		switch {
		case j == matching.Unmatched:
			batch = append(batch, cluster.Assignment{AgentA: i, AgentB: -1, JobA: jobs[i]})
		case i < j:
			batch = append(batch, cluster.Assignment{AgentA: i, AgentB: j, JobA: jobs[i], JobB: jobs[j]})
		}
	}
	d.cl.Summarize(d.cl.Dispatch(batch))
}

// imbalance is the largest shard's head count over the mean.
func imbalance(groups [][]int) float64 {
	largest, total := 0, 0
	for _, g := range groups {
		largest = max(largest, len(g))
		total += len(g)
	}
	return float64(largest*len(groups)) / float64(max(1, total))
}

// allocMB runs fn and returns the MiB it allocated.
func allocMB(fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return mib(after.TotalAlloc - before.TotalAlloc)
}

// replayFramework times what precedes a framework workload's first epoch:
// cooper.New the way the workload calls it and its pieces, calibrating the
// catalog, drawing one population of n, and the flight recorder's Record.
func replayFramework(tr *tracer, n int, catalog []workload.Job, opts ...cooper.Option) {
	tr.timed(nil, "cooper.New", "core.new_ms", func() {
		if f, err := cooper.New(opts...); err == nil {
			f.Close()
		}
	})
	tr.timed(nil, "workload.Catalog", "workload.build_catalog_ms", func() { workload.Catalog(arch.DefaultCMP()) })
	r := rand.New(rand.NewSource(programSeed))
	tr.timed(nil, "workload.Sample", "workload.sample_ms", func() {
		workload.Sample(n, catalog, cooper.Uniform(), r)
	})
	replayBuild(tr, programSeed, catalog)
	replayRecord(tr)
}
