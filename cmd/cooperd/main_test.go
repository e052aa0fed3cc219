package main

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"cooper/internal/arch"
	"cooper/internal/faults"
	"cooper/internal/netproto"
	"cooper/internal/policy"
	"cooper/internal/profiler"
	"cooper/internal/telemetry"
	"cooper/internal/workload"
)

// TestMetricsExposition drives a mini soak through a fault-armed server,
// ticks the retry and injection counters, and asserts the /metrics
// endpoint exposes the full resilience counter set — including the
// fault.injected.* family pre-created at zero — and that the exposed
// snapshot matches a live Snapshot of the same registry exactly.
func TestMetricsExposition(t *testing.T) {
	tel := telemetry.New()
	reg := tel.Registry()

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
		Seed:      1,
		Metrics:   reg,
		Events:    tel.Events,
		// Armed but quiet: zero probabilities exercise the injection path
		// on every connection while keeping the soak clean, and pre-create
		// the fault.injected.* counters in the registry.
		Faults: faults.NewPlan(faults.Config{Seed: 11}, reg, nil),
	}
	addrCh := make(chan string, 1)
	srvErr := make(chan error, 1)
	go func() { srvErr <- srv.Serve("127.0.0.1:0", func(a string) { addrCh <- a }) }()
	addr := <-addrCh

	var wg sync.WaitGroup
	for _, job := range []string{"correlation", "dedup"} {
		wg.Add(1)
		go func(job string) {
			defer wg.Done()
			c, err := netproto.Dial(addr, job)
			if err != nil {
				t.Errorf("dial %s: %v", job, err)
				return
			}
			defer c.Close()
			for e := 0; e < 2; e++ {
				if _, _, err := c.RunEpoch(); err != nil {
					t.Errorf("%s epoch %d: %v", job, e, err)
					return
				}
			}
		}(job)
	}
	wg.Wait()
	if err := <-srvErr; err != nil {
		t.Fatalf("serve: %v", err)
	}

	// Tick net.retry and fault.injected.connect_fail with a dial whose
	// connects are injected to fail, on a fake clock so the backoff ladder
	// costs nothing.
	failPlan := faults.NewPlan(faults.Config{Seed: 3, ConnectFailProb: 1}, reg, nil)
	if _, err := netproto.DialWith(addr, "dedup", netproto.DialOptions{
		Retries: 2,
		Clock:   faults.NewFakeClock(time.Unix(0, 0)),
		Faults:  failPlan.Injector(99),
		Metrics: reg,
		Jitter:  func() float64 { return 1 },
	}); err == nil {
		t.Fatal("injected connect failures did not fail the dial")
	}

	// Tick fault.injected.drop through a wrapped pipe.
	dropPlan := faults.NewPlan(faults.Config{Seed: 5, DropProb: 1}, reg, nil)
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	if _, err := dropPlan.Wrap(0, a).Write([]byte("gone\n")); err != nil {
		t.Fatalf("dropped write errored: %v", err)
	}

	ts := httptest.NewServer(metricsMux(tel, nil))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var exposed telemetry.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&exposed); err != nil {
		t.Fatalf("decoding /metrics: %v", err)
	}

	want := append(faults.CounterNames(),
		"net.reaped", "net.stale", "net.retry", "epoch.degraded")
	for _, name := range want {
		if _, ok := exposed.Counters[name]; !ok {
			t.Errorf("/metrics missing counter %q", name)
		}
	}
	if got := exposed.Counters["net.retry"]; got != 2 {
		t.Errorf("net.retry = %d, want 2", got)
	}
	if got := exposed.Counters["fault.injected.connect_fail"]; got != 3 {
		t.Errorf("fault.injected.connect_fail = %d, want 3", got)
	}
	if got := exposed.Counters["fault.injected.drop"]; got != 1 {
		t.Errorf("fault.injected.drop = %d, want 1", got)
	}
	// Histograms carry their digest: one latency per epoch, with quantiles.
	if h := exposed.Histograms["net.epoch_latency_s"]; h.Count != 2 || h.P99 <= 0 {
		t.Errorf("/metrics net.epoch_latency_s = %+v, want 2 observations with a p99", h)
	}

	// Snapshot invariant: with no writers active, the exposed snapshot and
	// a live one must agree counter for counter.
	live := reg.Snapshot()
	if !reflect.DeepEqual(exposed.Counters, live.Counters) {
		t.Errorf("/metrics counters diverge from live snapshot:\n exposed: %v\n live: %v",
			exposed.Counters, live.Counters)
	}
	if !reflect.DeepEqual(exposed.Gauges, live.Gauges) {
		t.Errorf("/metrics gauges diverge from live snapshot")
	}

	// Content negotiation: text/plain selects the Prometheus exposition on
	// the same /metrics path; /metrics/prom serves it unconditionally.
	for _, tc := range []struct {
		path, accept string
	}{
		{"/metrics", "text/plain"},
		{"/metrics", "text/plain; version=0.0.4, */*;q=0.1"},
		{"/metrics/prom", ""},
	} {
		req, err := http.NewRequest("GET", ts.URL+tc.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if tc.accept != "" {
			req.Header.Set("Accept", tc.accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		promBody, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if ct := resp.Header.Get("Content-Type"); ct != telemetry.PrometheusContentType {
			t.Errorf("%s (Accept %q) Content-Type = %q, want %q",
				tc.path, tc.accept, ct, telemetry.PrometheusContentType)
		}
		text := string(promBody)
		for _, frag := range []string{
			"# TYPE net_reaped counter",
			"# TYPE net_epoch_latency_s histogram",
			`net_epoch_latency_s_bucket{le="+Inf"}`,
		} {
			if !strings.Contains(text, frag) {
				t.Errorf("%s exposition missing %q", tc.path, frag)
			}
		}
	}
	// A JSON-first Accept header keeps the JSON exposition.
	req, err := http.NewRequest("GET", ts.URL+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "application/json, text/plain;q=0.5")
	jresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	jresp.Body.Close()
	if ct := jresp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("JSON-first Accept got Content-Type %q", ct)
	}

	// The flight recorder saw the soak: /debug/events parses back as
	// typed events covering epoch boundaries and matches.
	evResp, err := http.Get(ts.URL + "/debug/events")
	if err != nil {
		t.Fatal(err)
	}
	defer evResp.Body.Close()
	events, err := telemetry.ReadEvents(evResp.Body)
	if err != nil {
		t.Fatalf("parsing /debug/events: %v", err)
	}
	kinds := map[telemetry.EventType]int{}
	for _, e := range events {
		kinds[e.Type]++
	}
	for _, want := range []telemetry.EventType{
		telemetry.EventAgentRegistered, telemetry.EventEpochStart,
		telemetry.EventPairMatched, telemetry.EventEpochEnd,
	} {
		if kinds[want] == 0 {
			t.Errorf("/debug/events has no %s events (got %v)", want, kinds)
		}
	}
	if kinds[telemetry.EventEpochStart] != 2 {
		t.Errorf("epoch_start events = %d, want 2", kinds[telemetry.EventEpochStart])
	}

	// /debug/trace is valid Chrome trace_event JSON rooted at the
	// pipeline span, and pprof answers on the same mux.
	trResp, err := http.Get(ts.URL + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer trResp.Body.Close()
	var trace struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(trResp.Body).Decode(&trace); err != nil {
		t.Fatalf("/debug/trace is not valid JSON: %v", err)
	}
	if len(trace.TraceEvents) == 0 || trace.TraceEvents[0].Name != "pipeline" {
		t.Errorf("/debug/trace root = %+v, want pipeline span first", trace.TraceEvents)
	}
	pp, err := http.Get(ts.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	pp.Body.Close()
	if pp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline status = %d", pp.StatusCode)
	}
}

// TestWantsText pins the Accept-header negotiation rule: text/plain (or
// text/*) selects Prometheus unless application/json is asked for first.
func TestWantsText(t *testing.T) {
	for _, tc := range []struct {
		accept string
		want   bool
	}{
		{"", false},
		{"*/*", false},
		{"application/json", false},
		{"text/plain", true},
		{"text/*", true},
		{"text/plain; version=0.0.4", true},
		{"application/json, text/plain", false},
		{"text/plain, application/json", true},
		{"application/openmetrics-text, text/plain;q=0.5", true},
	} {
		if got := wantsText(tc.accept); got != tc.want {
			t.Errorf("wantsText(%q) = %v, want %v", tc.accept, got, tc.want)
		}
	}
}

// TestDebugEventsBounded covers the /debug/events tail bound: a bare GET
// returns at most 256 events no matter how large the ring, ?n= trims to
// the newest n, and ?n=0 explicitly asks for the whole retained tail.
func TestDebugEventsBounded(t *testing.T) {
	tel := telemetry.New()
	const total = 300
	for i := 0; i < total; i++ {
		tel.Events.Record(telemetry.Event{Type: telemetry.EventEpochStart,
			Epoch: i, Agent: -1, Partner: -1})
	}
	ts := httptest.NewServer(metricsMux(tel, nil))
	defer ts.Close()

	fetch := func(path string) []telemetry.Event {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		events, err := telemetry.ReadEvents(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return events
	}

	got := fetch("/debug/events")
	if len(got) != 256 {
		t.Errorf("bare GET returned %d events, want the 256-newest default", len(got))
	}
	if got[len(got)-1].Seq != total-1 || got[0].Seq != total-256 {
		t.Errorf("default tail spans seq %d..%d, want %d..%d",
			got[0].Seq, got[len(got)-1].Seq, total-256, total-1)
	}

	got = fetch("/debug/events?n=10")
	if len(got) != 10 || got[len(got)-1].Seq != total-1 {
		t.Errorf("?n=10 returned %d events ending at seq %d", len(got), got[len(got)-1].Seq)
	}

	if got = fetch("/debug/events?n=0"); len(got) != total {
		t.Errorf("?n=0 returned %d events, want the whole retained tail (%d)", len(got), total)
	}

	// Garbage stays on the bounded default rather than erroring.
	if got = fetch("/debug/events?n=bogus"); len(got) != 256 {
		t.Errorf("?n=bogus returned %d events, want the 256 default", len(got))
	}
}
