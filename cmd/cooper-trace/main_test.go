package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"cooper/internal/arch"
	"cooper/internal/netproto"
	"cooper/internal/policy"
	"cooper/internal/profiler"
	"cooper/internal/telemetry"
	"cooper/internal/workload"
)

// writeLog records a lifecycle into a JSONL file the way cooperd
// -events-out does: through a seeded telemetry ring with a sink.
func writeLog(t *testing.T, path string, record func(tel *telemetry.Telemetry)) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tel := telemetry.NewSeeded(7)
	tel.Events.SetSink(f)
	record(tel)
	if err := tel.Events.Err(); err != nil {
		t.Fatal(err)
	}
}

func cleanLifecycle(tel *telemetry.Telemetry) {
	rec := func(typ telemetry.EventType, epoch, agent, partner int, job string) {
		tel.RecordIn(tel.Trace, telemetry.Event{
			Type: typ, Epoch: epoch, Agent: agent, Partner: partner, Job: job})
	}
	rec(telemetry.EventAgentQueued, 0, 0, -1, "mcf")
	rec(telemetry.EventAgentRegistered, 0, 0, -1, "mcf")
	rec(telemetry.EventAgentQueued, 0, 1, -1, "lbm")
	rec(telemetry.EventAgentRegistered, 0, 1, -1, "lbm")
	rec(telemetry.EventPairMatched, 0, 0, 1, "mcf")
	rec(telemetry.EventAgentReaped, 1, 1, -1, "lbm")
	rec(telemetry.EventAgentReaped, 2, 0, -1, "mcf")
}

// TestSummaryAndAgent covers the default summary, -agent rendering,
// and the error paths.
func TestSummaryAndAgent(t *testing.T) {
	log := filepath.Join(t.TempDir(), "events.jsonl")
	writeLog(t, log, cleanLifecycle)

	var out, errb bytes.Buffer
	if code := run([]string{log}, &out, &errb); code != 0 {
		t.Fatalf("clean log exit = %d, stderr %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "2 agents (2 reaped, 0 live at end), 0 journey problems") {
		t.Errorf("summary = %q", out.String())
	}

	out.Reset()
	if code := run([]string{"-agent", "0", log}, &out, &errb); code != 0 {
		t.Fatalf("-agent exit = %d", code)
	}
	for _, want := range []string{"agent 0 (mcf)", "queued", "admitted", "matched", "severed", "reaped", "trace "} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("-agent output missing %q:\n%s", want, out.String())
		}
	}

	// Unknown agent and missing file are usage-level failures.
	if code := run([]string{"-agent", "99", log}, &out, &errb); code != 2 {
		t.Errorf("unknown agent exit = %d, want 2", code)
	}
	if code := run([]string{filepath.Join(t.TempDir(), "nope.jsonl")}, &out, &errb); code != 2 {
		t.Errorf("missing file exit = %d, want 2", code)
	}
	if code := run([]string{}, &out, &errb); code != 2 {
		t.Errorf("no args exit = %d, want 2", code)
	}
}

// TestProblemsExitNonzero checks a log with a lifecycle violation is
// reported and fails the run.
func TestProblemsExitNonzero(t *testing.T) {
	log := filepath.Join(t.TempDir(), "events.jsonl")
	writeLog(t, log, func(tel *telemetry.Telemetry) {
		// A match with no admission behind it.
		tel.RecordIn(tel.Trace, telemetry.Event{
			Type: telemetry.EventPairMatched, Epoch: 0, Agent: 0, Partner: 1, Job: "mcf"})
	})
	var out, errb bytes.Buffer
	if code := run([]string{log}, &out, &errb); code != 1 {
		t.Fatalf("broken log exit = %d, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "before admission") {
		t.Errorf("problem not printed:\n%s", out.String())
	}
}

// TestSlowest checks the ranked listing renders one journey per agent.
func TestSlowest(t *testing.T) {
	log := filepath.Join(t.TempDir(), "events.jsonl")
	writeLog(t, log, cleanLifecycle)
	var out, errb bytes.Buffer
	if code := run([]string{"-slowest", "1", log}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if n := strings.Count(out.String(), "admit_wait"); n != 1 {
		t.Errorf("-slowest 1 rendered %d journeys, want 1:\n%s", n, out.String())
	}
}

// TestChromeMerge stitches journeys with an agent span file and checks
// the multi-process output: journey threads on pid 1, the agent's span
// tree on pid 2, sharing one trace ID.
func TestChromeMerge(t *testing.T) {
	dir := t.TempDir()
	log := filepath.Join(dir, "events.jsonl")
	writeLog(t, log, cleanLifecycle)

	// An agent-side span tree rebased under some coordinator span, the
	// way cooper-agent -trace-out writes it.
	server := telemetry.NewSpanSeeded("pipeline", 7)
	agentRoot := telemetry.NewSpanSeeded("agent", 3)
	dial := agentRoot.Child("dial")
	dial.Finish()
	agentRoot.Rebase(server.Context())
	agentRoot.Finish()
	spanFile := filepath.Join(dir, "agent0.json")
	data, err := json.Marshal(agentRoot.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(spanFile, data, 0o644); err != nil {
		t.Fatal(err)
	}

	chrome := filepath.Join(dir, "trace.json")
	var out, errb bytes.Buffer
	if code := run([]string{"-chrome-out", chrome, log, spanFile}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, stderr %s", code, errb.String())
	}
	raw, err := os.ReadFile(chrome)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []telemetry.ChromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatal(err)
	}
	pids := map[int]bool{}
	names := map[string]bool{}
	for _, e := range trace.TraceEvents {
		pids[e.PID] = true
		names[e.Name] = true
	}
	if !pids[1] || !pids[2] {
		t.Errorf("expected pids 1 (journeys) and 2 (agent spans), got %v", pids)
	}
	for _, want := range []string{"thread_name", "process_name", "matched", "dial"} {
		if !names[want] {
			t.Errorf("chrome trace missing %q events (have %v)", want, names)
		}
	}
	// The rebased agent tree shares the coordinator's trace ID.
	if !bytes.Contains(raw, []byte(server.Trace().String())) {
		t.Error("agent spans should carry the coordinator's trace ID after rebase")
	}
}

// TestEndToEndDeterministic runs a real coordinator + agents twice with
// the same seed and checks cooper-trace -agent output is byte-identical
// — the acceptance property that makes flight logs comparable across
// runs.
func TestEndToEndDeterministic(t *testing.T) {
	runOnce := func(dir string) string {
		t.Helper()
		log := filepath.Join(dir, "events.jsonl")
		f, err := os.Create(log)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		tel := telemetry.NewSeeded(42)
		tel.Events.SetSink(f)

		cmp := arch.DefaultCMP()
		catalog, err := workload.Catalog(cmp)
		if err != nil {
			t.Fatal(err)
		}
		srv := &netproto.Server{
			Epoch:     2,
			Epochs:    2,
			Policy:    policy.Greedy{},
			Catalog:   catalog,
			Penalties: profiler.DensePenalties(cmp, catalog),
			Seed:      42,
			Metrics:   tel.Registry(),
			Events:    tel.Events,
			Span:      tel.Trace,
		}
		addrCh := make(chan string, 1)
		srvErr := make(chan error, 1)
		go func() { srvErr <- srv.Serve("127.0.0.1:0", func(a string) { addrCh <- a }) }()
		addr := <-addrCh
		// Dial one after the other: a Dial returns once the server has
		// answered the registration, so agent IDs follow dial order and
		// "-agent 0" names the same job in both runs.
		var wg sync.WaitGroup
		for _, job := range []string{"correlation", "dedup"} {
			c, err := netproto.Dial(addr, job)
			if err != nil {
				t.Fatalf("dial %s: %v", job, err)
			}
			defer c.Close()
			wg.Add(1)
			go func() {
				defer wg.Done()
				for e := 0; e < 2; e++ {
					if _, _, err := c.RunEpoch(); err != nil {
						t.Errorf("%s epoch %d: %v", c.OwnJob, e, err)
						return
					}
				}
			}()
		}
		wg.Wait()
		if err := <-srvErr; err != nil {
			t.Fatal(err)
		}

		var out, errb bytes.Buffer
		if code := run([]string{"-agent", "0", log}, &out, &errb); code != 0 {
			t.Fatalf("cooper-trace exit %d: %s", code, errb.String())
		}
		// Strip the wall-clock latencies: only the causal structure must
		// be identical across runs.
		var stable []string
		for _, line := range strings.Split(out.String(), "\n") {
			if i := strings.Index(line, " +"); i >= 0 {
				rest := line[i:]
				if j := strings.Index(rest, "  span "); j >= 0 {
					line = line[:i] + rest[j:]
				} else {
					line = line[:i]
				}
			}
			if i := strings.Index(line, "admit_wait"); i >= 0 {
				line = line[:i]
			}
			stable = append(stable, line)
		}
		return strings.Join(stable, "\n")
	}
	a := runOnce(t.TempDir())
	b := runOnce(t.TempDir())
	if a != b {
		t.Errorf("same-seed journeys differ:\n--- run 1\n%s\n--- run 2\n%s", a, b)
	}
	if !strings.Contains(a, "trace 5c9b57351fc1f0dc") {
		t.Errorf("seed-42 journey should carry the pinned trace ID:\n%s", a)
	}
}
