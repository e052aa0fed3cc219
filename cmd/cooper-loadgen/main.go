// Command cooper-loadgen drives the sharded colocation market at scale:
// it sweeps population sizes against shard counts on the in-process
// framework, times each epoch, and emits the agents-vs-epoch-time curve
// as JSON — the committed BENCH_shard.json snapshot.
//
// Usage:
//
//	cooper-loadgen -n 5000,20000,100000 -shards 1,8,64,256 -out BENCH_shard.json
//	cooper-loadgen -gate      # CI smoke gate: sharded must beat all-pairs
//	cooper-loadgen -verify    # shards=1 must reproduce the unsharded report
//
// -kernel picks how each leg's penalty matrix is produced: "oracle"
// (analytic, no profiling — the default), "exact" (profiling campaign
// completed by the exact flat kernel), or "approx" (the LSH-bucketed
// approximate kernel). Every leg logs and records the kernel that
// produced its matrix.
//
// No leg builds an agents×agents matrix any more — policies and the
// assessment work on the job-level matrix and each agent's row in it —
// so no configuration is refused for memory. Unsharded legs past
// -max-allpairs are still routed through the approximate kernel, as the
// committed snapshot records. The one thing left to bound is time: once
// a leg's fastest epoch runs over legBudget, larger populations at the
// same shard count are skipped, and every skip is logged and recorded in
// the snapshot's skips list with the measurement that caused it — a
// missing row means "too slow, and here is how slow", never "forgot".
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"time"

	"cooper/internal/core"
	"cooper/internal/policy"
	"cooper/internal/recommend"
	"cooper/internal/simcli"
	"cooper/internal/stats"
	"cooper/internal/workload"
)

func main() {
	cfg := loadConfig{}
	flag.StringVar(&cfg.popList, "n", "5000,20000,100000",
		"comma-separated population sizes to sweep")
	flag.StringVar(&cfg.shardList, "shards", "1,8,64,256",
		"comma-separated shard counts to sweep (1 = the all-pairs market)")
	flag.StringVar(&cfg.policyName, "policy", "SMR",
		"colocation policy (GR, CO, SMP, SMR, SR)")
	flag.IntVar(&cfg.epochs, "epochs", 2,
		"epochs per configuration; the row records the fastest")
	flag.IntVar(&cfg.refineBudget, "refine-budget", 0,
		"cross-shard refinement rounds; 0 means the default (4), negative disables")
	flag.Float64Var(&cfg.churn, "churn", 0,
		"run sweep legs through the streaming market, joining and departing "+
			"this fraction of the population every epoch after the first; rows "+
			"then record repair-vs-full round counts (0 keeps the static sweep)")
	flag.StringVar(&cfg.out, "out", "",
		"write the JSON benchmark rows to this file instead of stdout")
	flag.IntVar(&cfg.maxAllPairs, "max-allpairs", 10000,
		"largest population the unsharded all-pairs market runs with the "+
			"selected kernel; bigger legs are routed through the approximate "+
			"kernel")
	flag.StringVar(&cfg.kernel, "kernel", "oracle",
		"how each leg's penalty matrix is produced: oracle (analytic, no "+
			"profiling), exact (profiling campaign completed by the exact flat "+
			"kernel), or approx (the LSH-bucketed approximate kernel)")
	flag.BoolVar(&cfg.gate, "gate", false,
		"CI smoke gate: one 5000-agent epoch, 8 shards vs all-pairs; on 4+ "+
			"cores the sharded market must be faster")
	flag.BoolVar(&cfg.verify, "verify", false,
		"determinism check: a shards=1 framework must reproduce the "+
			"unsharded epoch report byte for byte")
	cf := simcli.NewCommonFlags(flag.CommandLine).SeedWorkers()
	flag.Parse()
	cfg.seed, cfg.workers = *cf.Seed, *cf.Workers

	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cooper-loadgen:", err)
		os.Exit(1)
	}
}

// loadConfig is the parsed command line.
type loadConfig struct {
	popList, shardList string
	policyName         string
	epochs             int
	refineBudget       int
	churn              float64
	out                string
	maxAllPairs        int
	kernel             string
	gate, verify       bool
	seed               int64
	workers            int
}

// row is one (population, shards) measurement in BENCH_shard.json.
type row struct {
	Agents           int     `json:"agents"`
	Shards           int     `json:"shards"`
	Workers          int     `json:"workers"`
	Epochs           int     `json:"epochs"`
	Kernel           string  `json:"kernel"`
	EpochMS          float64 `json:"epoch_ms"` // fastest epoch
	MeanPenalty      float64 `json:"mean_penalty"`
	RefinementRounds int     `json:"refine_rounds"`
	RefinementTrades int     `json:"refine_trades"`
	// Streaming-market accounting, present only for -churn sweeps: how
	// many epochs repaired incrementally vs re-matched from scratch, and
	// the per-epoch churn magnitude that drove them.
	Repairs       int `json:"repairs,omitempty"`
	Fulls         int `json:"fulls,omitempty"`
	ChurnPerEpoch int `json:"churn_per_epoch,omitempty"`
}

// bench is the emitted document.
type bench struct {
	Policy  string   `json:"policy"`
	Seed    int64    `json:"seed"`
	Workers int      `json:"workers"` // 0 = GOMAXPROCS at run time
	CPUs    int      `json:"cpus"`
	Rows    []row    `json:"rows"`
	Skips   []string `json:"skips,omitempty"`
}

func run(cfg loadConfig, stdout io.Writer) error {
	pol, err := policy.ByName(cfg.policyName)
	if err != nil {
		return err
	}
	if cfg.verify {
		return verifyShardOne(cfg, pol, stdout)
	}
	if cfg.gate {
		return gate(cfg, pol, stdout)
	}

	pops, err := parseInts(cfg.popList)
	if err != nil {
		return fmt.Errorf("-n: %w", err)
	}
	shards, err := parseInts(cfg.shardList)
	if err != nil {
		return fmt.Errorf("-shards: %w", err)
	}

	doc := bench{Policy: pol.Name(), Seed: cfg.seed, Workers: cfg.workers,
		CPUs: runtime.NumCPU()}
	over := make(map[int]row) // shard count → the smallest leg that ran over legBudget
	for _, n := range pops {
		for _, s := range shards {
			if slow, ok := over[s]; ok && n >= slow.Agents {
				reason := fmt.Sprintf("n=%d took %.1f s per epoch at this shard count, over the %v leg budget",
					slow.Agents, slow.EpochMS/1000, legBudget)
				fmt.Fprintf(stdout, "skip n=%d shards=%d: %s\n", n, s, reason)
				doc.Skips = append(doc.Skips, fmt.Sprintf("n=%d shards=%d: %s", n, s, reason))
				continue
			}
			kernel := legKernel(cfg, n, s)
			if kernel != cfg.kernel {
				fmt.Fprintf(stdout, "n=%d shards=%d: past -max-allpairs %d, routing through the %s kernel\n",
					n, s, cfg.maxAllPairs, kernel)
			}
			r, err := measure(cfg, pol, n, s, kernel)
			if err != nil {
				return fmt.Errorf("n=%d shards=%d: %w", n, s, err)
			}
			if cfg.churn > 0 {
				fmt.Fprintf(stdout, "n=%d shards=%d: %.1f ms/epoch steady-state, %d repairs / %d fulls at churn %d per epoch, %s kernel\n",
					n, s, r.EpochMS, r.Repairs, r.Fulls, r.ChurnPerEpoch, r.Kernel)
			} else {
				fmt.Fprintf(stdout, "n=%d shards=%d: %.1f ms/epoch, mean penalty %.4f, %d refinement trades, %s kernel\n",
					n, s, r.EpochMS, r.MeanPenalty, r.RefinementTrades, r.Kernel)
			}
			doc.Rows = append(doc.Rows, r)
			if r.EpochMS > float64(legBudget.Milliseconds()) {
				over[s] = r // it ran, so it is smaller than any leg recorded before
			}
		}
	}

	out := stdout
	if cfg.out != "" {
		f, err := os.Create(cfg.out)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return err
	}
	if cfg.out != "" {
		fmt.Fprintf(stdout, "wrote %d rows to %s\n", len(doc.Rows), cfg.out)
	}
	return nil
}

// legBudget is the epoch time past which a sweep stops growing the
// population at a shard count: the next size up can only be slower.
const legBudget = time.Minute

// legKernel picks the prediction kernel one (population, shards)
// configuration runs with: all-pairs legs past -max-allpairs go through
// the approximate kernel, everything else through the selected one.
func legKernel(cfg loadConfig, n, shards int) string {
	if shards <= 1 && n > cfg.maxAllPairs {
		return "approx"
	}
	return cfg.kernel
}

// framework builds the framework for one configuration with the given
// prediction kernel ("oracle", "exact", or "approx").
func framework(cfg loadConfig, pol policy.Policy, shards int, kernel string) (*core.Framework, error) {
	c := core.Config{
		Seed: cfg.seed,
		Market: core.MarketConfig{
			Policy:           pol,
			Shards:           shards,
			RefinementBudget: cfg.refineBudget,
			Rematch:          cfg.churn > 0,
		},
		Pipeline: core.PipelineConfig{
			Workers: cfg.workers,
		},
	}
	switch kernel {
	case "oracle":
		c.Pipeline.Oracle = true
	case "exact":
		c.Pipeline.Predictor = recommend.Default()
	case "approx":
		pred := recommend.Default()
		pred.Approx = recommend.DefaultApprox()
		c.Pipeline.Predictor = pred
	default:
		return nil, fmt.Errorf("-kernel %q: want oracle, exact, or approx", kernel)
	}
	return core.NewFramework(context.Background(), c)
}

// measure times cfg.epochs epochs of one configuration over the same
// seeded population and reports the fastest.
func measure(cfg loadConfig, pol policy.Policy, n, shards int, kernel string) (row, error) {
	fw, err := framework(cfg, pol, shards, kernel)
	if err != nil {
		return row{}, err
	}
	defer fw.Close()
	pop := fw.SamplePopulation(n, stats.Uniform{})

	epochs := cfg.epochs
	if epochs < 1 {
		epochs = 1
	}
	r := row{Agents: n, Shards: shards, Workers: cfg.workers, Epochs: epochs,
		Kernel: fw.Kernel()}
	if cfg.churn > 0 {
		return measureStream(cfg, fw, pop, r)
	}
	for e := 0; e < epochs; e++ {
		start := time.Now()
		rep, err := fw.RunEpoch(pop)
		if err != nil {
			return row{}, err
		}
		ms := float64(time.Since(start).Microseconds()) / 1000
		if e == 0 || ms < r.EpochMS {
			r.EpochMS = ms
		}
		r.MeanPenalty = rep.MeanTruePenalty()
		r.RefinementRounds = rep.RefinementRounds
		r.RefinementTrades = rep.RefinementTrades
	}
	return r, nil
}

// measureStream runs one -churn leg through the streaming market: the
// first epoch admits the whole population (a full clear by definition),
// and every later epoch joins and departs churn·n agents, counting how
// many epochs repaired incrementally vs re-matched from scratch. The
// recorded time is the fastest post-cold-start epoch — the streaming
// steady state.
func measureStream(cfg loadConfig, fw *core.Framework, pop workload.Population, r row) (row, error) {
	n := r.Agents
	k := int(cfg.churn * float64(n))
	if k < 1 {
		k = 1
	}
	r.ChurnPerEpoch = k
	var rep *core.EpochReport
	var err error
	for e := 0; e < r.Epochs; e++ {
		churn := core.Churn{Join: pop.Jobs}
		if e > 0 {
			churn = core.Churn{Join: pop.Jobs[:k], Depart: rep.AgentIDs[:k]}
		}
		start := time.Now()
		rep, err = fw.StreamEpoch(churn)
		if err != nil {
			return row{}, err
		}
		ms := float64(time.Since(start).Microseconds()) / 1000
		if e > 0 {
			if r.EpochMS == 0 || ms < r.EpochMS {
				r.EpochMS = ms
			}
		} else if r.Epochs == 1 {
			r.EpochMS = ms
		}
		r.MeanPenalty = rep.MeanTruePenalty()
		r.RefinementRounds = rep.RefinementRounds
		r.RefinementTrades = rep.RefinementTrades
		if rep.Rematch.Mode == "repair" {
			r.Repairs++
		} else {
			r.Fulls++
		}
	}
	return r, nil
}

// gate is the CI smoke check: at 5000 agents on 4+ cores the sharded
// market must clear an epoch faster than the all-pairs one (on fewer
// cores completing both cleanly is enough — serial sharding only saves
// memory, not time).
func gate(cfg loadConfig, pol policy.Policy, stdout io.Writer) error {
	const n, shards = 5000, 8
	single, err := measure(cfg, pol, n, 1, cfg.kernel)
	if err != nil {
		return fmt.Errorf("all-pairs: %w", err)
	}
	sharded, err := measure(cfg, pol, n, shards, cfg.kernel)
	if err != nil {
		return fmt.Errorf("sharded: %w", err)
	}
	speedup := single.EpochMS / sharded.EpochMS
	fmt.Fprintf(stdout, "gate: n=%d all-pairs %.1f ms, %d shards %.1f ms (%.2fx, %d cpus)\n",
		n, single.EpochMS, shards, sharded.EpochMS, speedup, runtime.NumCPU())
	if runtime.NumCPU() >= 4 && sharded.EpochMS >= single.EpochMS {
		return fmt.Errorf("sharded epoch (%.1f ms) not faster than all-pairs (%.1f ms) on %d cores",
			sharded.EpochMS, single.EpochMS, runtime.NumCPU())
	}
	fmt.Fprintln(stdout, "gate: ok")
	return nil
}

// verifyShardOne pins the compatibility contract: Shards=1 must route
// through the identical unsharded path — same reports, bit for bit.
func verifyShardOne(cfg loadConfig, pol policy.Policy, stdout io.Writer) error {
	const n = 500
	unsharded, err := framework(cfg, pol, 0, cfg.kernel)
	if err != nil {
		return err
	}
	defer unsharded.Close()
	one, err := framework(cfg, pol, 1, cfg.kernel)
	if err != nil {
		return err
	}
	defer one.Close()

	popA := unsharded.SamplePopulation(n, stats.Uniform{})
	popB := one.SamplePopulation(n, stats.Uniform{})
	if !reflect.DeepEqual(popA, popB) {
		return fmt.Errorf("shards=1 framework sampled a different population")
	}
	repA, err := unsharded.RunEpoch(popA)
	if err != nil {
		return err
	}
	repB, err := one.RunEpoch(popB)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(repA, repB) {
		return fmt.Errorf("shards=1 epoch report differs from the unsharded one")
	}
	fmt.Fprintf(stdout, "verify: ok — shards=1 reproduces the unsharded %d-agent report byte for byte\n", n)
	return nil
}

func parseInts(csv string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(csv, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, err
		}
		if v < 1 {
			return nil, fmt.Errorf("%d out of range", v)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}
