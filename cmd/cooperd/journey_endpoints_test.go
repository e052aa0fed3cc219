package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cooper/internal/journey"
	"cooper/internal/telemetry"
)

// journeyFixture records a small lifecycle into a ring wired the way
// main wires it, with the journey endpoints served or not.
func journeyFixture(t *testing.T, served bool) (*telemetry.Telemetry, *journey.Builder) {
	t.Helper()
	tel := telemetry.NewSeeded(1)
	jb := journeys(tel, served)
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
	return tel, jb
}

// TestDebugJourneyEndpoint covers the live journey endpoint: a known
// agent serves its timeline newest-first, ?n= bounds the step count
// like /debug/events, and unknown agents get a JSON 404 body rather
// than a plain-text error page.
func TestDebugJourneyEndpoint(t *testing.T) {
	tel, jb := journeyFixture(t, true)
	ts := httptest.NewServer(metricsMux(tel, jb))
	defer ts.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("GET %s Content-Type = %q, want application/json", path, ct)
		}
		return resp.StatusCode, string(body)
	}

	code, body := get("/debug/journey?agent=0")
	if code != http.StatusOK {
		t.Fatalf("known agent status = %d: %s", code, body)
	}
	var j journey.Journey
	if err := json.Unmarshal([]byte(body), &j); err != nil {
		t.Fatal(err)
	}
	if j.Agent != 0 || j.Job != "mcf" || len(j.Steps) != 4 {
		t.Fatalf("journey = %+v", j)
	}
	// Newest first: the sever (from partner 1's reap) leads, queued ends.
	if j.Steps[0].State != journey.StateSevered || j.Steps[3].State != journey.StateQueued {
		t.Errorf("steps not newest-first: %v then %v", j.Steps[0].State, j.Steps[3].State)
	}
	if j.Trace == "" || j.Steps[0].Trace != j.Trace {
		t.Errorf("live journey should carry the daemon's trace: %+v", j)
	}

	// ?n= trims to the newest n steps.
	code, body = get("/debug/journey?agent=0&n=2")
	if code != http.StatusOK {
		t.Fatalf("bounded fetch status = %d", code)
	}
	if err := json.Unmarshal([]byte(body), &j); err != nil {
		t.Fatal(err)
	}
	if len(j.Steps) != 2 || j.Steps[0].State != journey.StateSevered {
		t.Errorf("?n=2 steps = %+v, want the 2 newest", j.Steps)
	}

	// Unknown agent: 404 with a JSON error body.
	code, body = get("/debug/journey?agent=42")
	if code != http.StatusNotFound {
		t.Fatalf("unknown agent status = %d, want 404", code)
	}
	var e map[string]string
	if err := json.Unmarshal([]byte(body), &e); err != nil {
		t.Fatalf("404 body is not JSON: %q", body)
	}
	if !strings.Contains(e["error"], "42") {
		t.Errorf("404 error %q should name the agent", e["error"])
	}

	// Missing or malformed agent parameter: 400, still JSON.
	for _, path := range []string{"/debug/journey", "/debug/journey?agent=xyz"} {
		code, body = get(path)
		if code != http.StatusBadRequest {
			t.Errorf("GET %s status = %d, want 400", path, code)
		}
		if err := json.Unmarshal([]byte(body), &e); err != nil {
			t.Errorf("GET %s body is not JSON: %q", path, body)
		}
	}
}

// TestDebugJourneysSlowest covers the fleet-wide ranking endpoint and
// its ?n= bound.
func TestDebugJourneysSlowest(t *testing.T) {
	tel, jb := journeyFixture(t, true)
	ts := httptest.NewServer(metricsMux(tel, jb))
	defer ts.Close()

	fetch := func(path string) []journey.Journey {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out []journey.Journey
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	all := fetch("/debug/journeys/slowest")
	if len(all) != 2 {
		t.Fatalf("slowest returned %d journeys, want 2", len(all))
	}
	one := fetch("/debug/journeys/slowest?n=1")
	if len(one) != 1 {
		t.Fatalf("?n=1 returned %d journeys", len(one))
	}
	if one[0].Agent != all[0].Agent {
		t.Errorf("?n=1 should keep the top-ranked journey")
	}

	// A nil builder (journeys disabled) must not panic the endpoints.
	disabled := httptest.NewServer(metricsMux(tel, nil))
	defer disabled.Close()
	resp, err := http.Get(disabled.URL + "/debug/journey?agent=0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("nil builder should 404, got %d", resp.StatusCode)
	}
}

// TestNoJourneysWithoutMetrics: without -metrics nothing serves the
// journey endpoints, so cooperd builds no journey builder and registers
// no observer to keep every agent's steps; the endpoints, were they
// served, would know no agent.
func TestNoJourneysWithoutMetrics(t *testing.T) {
	tel, jb := journeyFixture(t, false)
	if jb != nil {
		t.Fatal("a journey builder was wired without -metrics")
	}
	rec := httptest.NewRecorder()
	metricsMux(tel, jb).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/journey?agent=0", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("/debug/journey?agent=0 without a builder: status %d, want 404", rec.Code)
	}
}
