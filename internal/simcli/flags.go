package simcli

import (
	"flag"
	"fmt"
	"time"
)

// CommonFlags registers the flag groups Cooper's commands share, so
// cooperd, cooper-sim, and cooper-agent present one surface: same names,
// same defaults, same help text, instead of drifting copies. A command builds the groups it needs:
//
//	cf := simcli.NewCommonFlags(flag.CommandLine).
//		SeedWorkers().Events("").Chaos("every agent connection").
//		ServerTimeouts().Audit().Market()
//	flag.Parse()
//	srv.Seed = *cf.Seed
//
// Each group method registers its flags on the FlagSet and returns the
// receiver for chaining; the exported pointers are valid after the
// group's method has run and carry parsed values after fs.Parse.
type CommonFlags struct {
	fs *flag.FlagSet

	// SeedWorkers group.
	Seed    *int64
	Workers *int

	// Events group.
	EventsOut *string

	// Chaos group.
	ChaosSeed *int64

	// ServerTimeouts group.
	ReadTimeout  *time.Duration
	WriteTimeout *time.Duration
	EpochTimeout *time.Duration

	// ClientTimeouts group (EpochTimeout is shared with ServerTimeouts:
	// the two groups register the same -epoch-timeout name with
	// side-appropriate help, and no command uses both).
	DialTimeout *time.Duration
	Retries     *int

	// Audit group.
	AuditOn    *bool
	AuditAlpha *float64

	// Market group.
	Shards *int

	// Rematch group.
	RematchOn      *bool
	ChurnThreshold *float64
}

// NewCommonFlags wraps fs (typically flag.CommandLine) for group
// registration.
func NewCommonFlags(fs *flag.FlagSet) *CommonFlags {
	return &CommonFlags{fs: fs}
}

// SeedWorkers registers -seed and -workers, the determinism pair every
// command honors: results are bit-identical at any worker count.
func (c *CommonFlags) SeedWorkers() *CommonFlags {
	c.Seed = c.fs.Int64("seed", 1, "RNG seed")
	c.Workers = c.fs.Int("workers", 0,
		"worker pool bound for the pipeline's fan-out phases; "+
			"0 means GOMAXPROCS, 1 forces the serial path "+
			"(results are identical at any value)")
	return c
}

// Events registers -events-out. scope prefixes the help text for
// commands where the flag only applies in one mode (e.g. "with -trace, ").
func (c *CommonFlags) Events(scope string) *CommonFlags {
	c.EventsOut = c.fs.String("events-out", "",
		scope+"append the flight-recorder event stream (epoch snapshots "+
			"included) to this JSONL file as it is recorded — every event, "+
			"not just the ring's retained tail; replayable and auditable "+
			"with cooper-replay")
	return c
}

// Chaos registers -chaos-seed. scope names what the injection covers:
// "every agent connection" server-side, "this agent's connection"
// client-side.
func (c *CommonFlags) Chaos(scope string) *CommonFlags {
	c.ChaosSeed = c.fs.Int64("chaos-seed", 0, fmt.Sprintf(
		"testing only: arm deterministic fault injection on %s "+
			"with the hostile profile seeded here; 0 disables", scope))
	return c
}

// ServerTimeouts registers the coordinator-side deadline knobs:
// -read-timeout, -write-timeout, -epoch-timeout.
func (c *CommonFlags) ServerTimeouts() *CommonFlags {
	c.ReadTimeout = c.fs.Duration("read-timeout", 0,
		"per-message read deadline for agent connections; 0 means the "+
			"default (30s), negative disables")
	c.WriteTimeout = c.fs.Duration("write-timeout", 0,
		"per-message write deadline for agent connections; 0 means the "+
			"default (10s), negative disables")
	c.EpochTimeout = c.fs.Duration("epoch-timeout", 0,
		"wall-clock bound per scheduling epoch; laggards past it are reaped "+
			"and the epoch completes degraded; 0 disables")
	return c
}

// ClientTimeouts registers the agent-side resilience knobs:
// -dial-timeout, -retries, -epoch-timeout.
func (c *CommonFlags) ClientTimeouts() *CommonFlags {
	c.DialTimeout = c.fs.Duration("dial-timeout", 0,
		"connect (and registration reply) deadline per attempt; 0 means the "+
			"default (10s), negative disables")
	c.Retries = c.fs.Int("retries", 0,
		"additional dial attempts after a retryable failure, with capped "+
			"exponential backoff; registration rejections never retry")
	c.EpochTimeout = c.fs.Duration("epoch-timeout", 0,
		"per-message read deadline while waiting on the coordinator; 0 means "+
			"the default (2m), negative disables")
	return c
}

// Audit registers -audit and -audit-alpha, the invariant-engine pair.
func (c *CommonFlags) Audit() *CommonFlags {
	c.AuditOn = c.fs.Bool("audit", false,
		"run the live invariant auditor on the event stream: violations are "+
			"recorded as invariant_violated events, counted under "+
			"audit.violations.*, and fail the exit status")
	c.AuditAlpha = c.fs.Float64("audit-alpha", -1,
		"declare a stability contract α in each epoch snapshot: auditors "+
			"(live or cooper-replay) flag any blocking pair where both agents "+
			"gain more than α; negative declares no contract")
	return c
}

// Market registers the sharded-market knob, -shards.
func (c *CommonFlags) Market() *CommonFlags {
	c.Shards = c.fs.Int("shards", 0,
		"clear each epoch through the sharded colocation market with this "+
			"many consistent-hash shards matched in parallel; 0 or 1 keeps "+
			"the single all-pairs market")
	return c
}

// Rematch registers the streaming-market knobs: -rematch and
// -churn-threshold.
func (c *CommonFlags) Rematch() *CommonFlags {
	c.RematchOn = c.fs.Bool("rematch", false,
		"run the streaming market: agents joining or leaving mid-epoch are "+
			"absorbed by incremental neighborhood repair instead of waiting "+
			"for the next epoch boundary")
	c.ChurnThreshold = c.fs.Float64("churn-threshold", 0,
		"with -rematch, the fraction of the population whose cumulative "+
			"churn since the last full clear forces a from-scratch re-match; "+
			"0 means the default (0.10)")
	return c
}
