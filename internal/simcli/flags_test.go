package simcli

import (
	"bytes"
	"flag"
	"testing"
)

// The shared flag surface is a contract: scripts and docs depend on the
// names, defaults, and help text below. Golden-pin the full server-side
// build (every group cooperd registers) so an accidental rename or
// default change fails loudly here instead of silently breaking users.
func TestCommonFlagsHelpGolden(t *testing.T) {
	fs := flag.NewFlagSet("cooperd", flag.ContinueOnError)
	NewCommonFlags(fs).
		SeedWorkers().
		Events("").
		Chaos("every agent connection").
		ServerTimeouts().
		Audit().
		Market()

	var buf bytes.Buffer
	fs.SetOutput(&buf)
	fs.PrintDefaults()

	const golden = `  -audit
    	run the live invariant auditor on the event stream: violations are recorded as invariant_violated events, counted under audit.violations.*, and fail the exit status
  -audit-alpha float
    	declare a stability contract α in each epoch snapshot: auditors (live or cooper-replay) flag any blocking pair where both agents gain more than α; negative declares no contract (default -1)
  -chaos-seed int
    	testing only: arm deterministic fault injection on every agent connection with the hostile profile seeded here; 0 disables
  -epoch-timeout duration
    	wall-clock bound per scheduling epoch; laggards past it are reaped and the epoch completes degraded; 0 disables
  -events-out string
    	append the flight-recorder event stream (epoch snapshots included) to this JSONL file as it is recorded — every event, not just the ring's retained tail; replayable and auditable with cooper-replay
  -read-timeout duration
    	per-message read deadline for agent connections; 0 means the default (30s), negative disables
  -seed int
    	RNG seed (default 1)
  -shards int
    	clear each epoch through the sharded colocation market with this many consistent-hash shards matched in parallel; 0 or 1 keeps the single all-pairs market
  -workers int
    	worker pool bound for the pipeline's fan-out phases; 0 means GOMAXPROCS, 1 forces the serial path (results are identical at any value)
  -write-timeout duration
    	per-message write deadline for agent connections; 0 means the default (10s), negative disables
`
	if got := buf.String(); got != golden {
		t.Errorf("server flag surface drifted from golden.\ngot:\n%s\nwant:\n%s", got, golden)
	}
}

// The client-side group must not collide with itself and carries its own
// -epoch-timeout semantics.
func TestCommonFlagsClientGroup(t *testing.T) {
	fs := flag.NewFlagSet("cooper-agent", flag.ContinueOnError)
	cf := NewCommonFlags(fs).Chaos("this agent's connection").ClientTimeouts()

	if err := fs.Parse([]string{"-dial-timeout", "3s", "-retries", "2", "-epoch-timeout", "1m"}); err != nil {
		t.Fatal(err)
	}
	if cf.DialTimeout.Seconds() != 3 || *cf.Retries != 2 || cf.EpochTimeout.Minutes() != 1 {
		t.Fatalf("parsed %v %v %v", *cf.DialTimeout, *cf.Retries, *cf.EpochTimeout)
	}
	if f := fs.Lookup("epoch-timeout"); f == nil ||
		f.Usage[:len("per-message")] != "per-message" {
		t.Fatalf("client -epoch-timeout help wrong: %+v", f)
	}
}

// Defaults survive an empty parse — what every command relies on.
func TestCommonFlagsDefaults(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	cf := NewCommonFlags(fs).SeedWorkers().Audit().Market()
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if *cf.Seed != 1 || *cf.Workers != 0 || *cf.AuditOn || *cf.AuditAlpha != -1 ||
		*cf.Shards != 0 {
		t.Fatalf("defaults wrong: seed=%d workers=%d audit=%v α=%v shards=%d",
			*cf.Seed, *cf.Workers, *cf.AuditOn, *cf.AuditAlpha, *cf.Shards)
	}
}
