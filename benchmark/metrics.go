package main

import (
	"math"
	"sort"
	"time"
)

// spec names one metric of BENCHMARK.json. The lists below are the single
// source the harness emits from; bench_test.go pins them to BENCHMARK.json.
type spec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd lists the metrics an agent or operator sees. Every workload
// reports every one of them (the driver's contract), so each is defined by
// role: README.md has the per-workload meaning of op and alt.
var endToEnd = []spec{
	{"setup_s", "s", "lower"},
	{"agents_per_s", "1/s", "higher"},
	{"op_ms_p50", "ms", "lower"},
	{"op_ms_p90", "ms", "lower"},
	{"alt_ms_p50", "ms", "lower"},
	{"cpu_ms_per_kagent", "ms", "lower"},
	{"alloc_mb_per_kagent", "MiB", "lower"},
	{"mean_penalty", "penalty", "lower"},
}

// perLayer lists the metrics of single layers, named after the packages.
// _ms_p50 metrics are the harness timing the named public call on the
// workload's own inputs (layer replay); counts come from results or from
// counters the program already exports. A layer a workload does not use
// reports zero.
var perLayer = []spec{
	{"profiler.expand_ms_p50", "ms", "lower"},
	{"profiler.expand_mb", "MiB", "lower"},
	{"profiler.dense_ms", "ms", "lower"},
	{"profiler.campaign_ms", "ms", "lower"},
	{"profiler.campaign_runs", "count", "lower"},
	{"profiler.penalty_matrix_ms", "ms", "lower"},

	{"policy.assign_ms_p50", "ms", "lower"},
	{"policy.true_penalties_ms_p50", "ms", "lower"},
	{"matching.proposals_per_agent", "count", "lower"},
	{"matching.rotations", "count", "lower"},

	{"agent.exchange_ms_p50", "ms", "lower"},
	{"agent.blocking_pairs_per_1k", "count", "lower"},
	{"agent.breakaway_share", "share", "lower"},

	{"shard.clear_ms_p50", "ms", "lower"},
	{"shard.repair_ms_p50", "ms", "lower"},
	{"shard.refine_rounds", "count", "lower"},
	{"shard.refine_trades", "count", "lower"},
	{"shard.imbalance", "ratio", "lower"},
	{"shard.clear_speedup_workers", "ratio", "higher"},

	{"rematch.ledger_apply_ms_p50", "ms", "lower"},
	{"rematch.recommend_ms_p50", "ms", "lower"},
	{"rematch.neighborhood_per_churn", "count", "lower"},
	{"rematch.changed_share", "share", "higher"},
	{"rematch.repairs", "count", "higher"},
	{"rematch.fulls", "count", "lower"},

	{"recommend.complete_ms_p50", "ms", "lower"},
	{"recommend.approx_complete_ms_p50", "ms", "lower"},
	{"recommend.fill_iters", "count", "lower"},
	{"recommend.sim_pairs_recomputed", "count", "lower"},
	{"recommend.candidates_scored", "count", "lower"},
	{"recommend.candidates_skipped", "count", "higher"},
	{"recommend.topk_recall", "share", "higher"},
	{"recommend.pref_accuracy", "share", "higher"},
	{"recommend.approx_pref_accuracy", "share", "higher"},

	{"netproto.dial_ms_p50", "ms", "lower"},
	{"netproto.codec_us_per_msg", "us", "lower"},
	{"netproto.msgs_per_epoch", "count", "lower"},
	{"netproto.admit_wait_ms_p50", "ms", "lower"},
	{"netproto.admit_wait_ms_p99", "ms", "lower"},
	{"netproto.epoch_latency_ms_p50", "ms", "lower"},
	{"netproto.epochs_closed", "count", "higher"},
	{"netproto.reaped", "count", "lower"},
	{"netproto.stale", "count", "lower"},
	{"netproto.cpu_us_per_agent_epoch", "us", "lower"},
	{"netproto.residual_ms", "ms", "lower"},
	{"netproto.assign_ms_p99", "ms", "lower"},
	{"netproto.join_ok_share", "share", "higher"},

	{"telemetry.record_ns_per_event", "ns", "lower"},
	{"telemetry.events_per_epoch", "count", "lower"},
	{"telemetry.events_dropped", "count", "lower"},
	{"telemetry.overhead_share", "share", "lower"},

	{"arch.paircache_hit_rate", "share", "higher"},
	{"arch.pair_solve_us", "us", "lower"},
	{"cluster.dispatch_ms_p50", "ms", "lower"},

	{"core.new_ms", "ms", "lower"},
	{"core.residual_ms_p50", "ms", "lower"},
	{"core.coverage", "share", "higher"},
	{"workload.sample_ms", "ms", "lower"},
	{"workload.build_catalog_ms", "ms", "lower"},
	{"process.alloc_mb_per_kagent", "MiB", "lower"},
	{"process.gc_pause_ms", "ms", "lower"},
	{"process.peak_rss_mb", "MiB", "lower"},
	{"gen_late_ms_p99", "ms", "lower"},
}

// samples is a set of measurements of one quantity.
type samples []float64

func (s *samples) add(v float64)          { *s = append(*s, v) }
func (s *samples) addDur(d time.Duration) { s.add(ms(d)) }
func (s samples) median() float64         { return s.quantile(0.5) }
func ms(d time.Duration) float64          { return float64(d) / float64(time.Millisecond) }
func mib(bytes uint64) float64            { return float64(bytes) / (1 << 20) }

// quantile is the linearly interpolated q-quantile; zero for no samples.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	sorted := append(samples(nil), s...)
	sort.Float64s(sorted)
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

// mean is zero for no samples.
func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	var t float64
	for _, v := range s {
		t += v
	}
	return t / float64(len(s))
}
