package netproto

import (
	"bufio"
	"encoding/json"
	"errors"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"cooper/internal/arch"
	"cooper/internal/faults"
	"cooper/internal/policy"
	"cooper/internal/profiler"
	"cooper/internal/telemetry"
	"cooper/internal/workload"
)

func testServer(t *testing.T, epoch int, pol policy.Policy) (*Server, []workload.Job) {
	t.Helper()
	cmp := arch.DefaultCMP()
	catalog, err := workload.Catalog(cmp)
	if err != nil {
		t.Fatal(err)
	}
	return &Server{
		Epoch:     epoch,
		Policy:    pol,
		Catalog:   catalog,
		Penalties: profiler.DensePenalties(cmp, catalog),
		Seed:      1,
	}, catalog
}

func TestEndToEndEpoch(t *testing.T) {
	srv, _ := testServer(t, 4, policy.StableRoommate{})
	addrCh := make(chan string, 1)
	srvErr := make(chan error, 1)
	go func() {
		srvErr <- srv.Serve("127.0.0.1:0", func(a string) { addrCh <- a })
	}()
	addr := <-addrCh

	jobs := []string{"correlation", "dedup", "swapt", "stream"}
	var wg sync.WaitGroup
	summaries := make([]Message, len(jobs))
	assignments := make([]Message, len(jobs))
	errs := make([]error, len(jobs))
	for i, job := range jobs {
		wg.Add(1)
		go func(i int, job string) {
			defer wg.Done()
			c, err := Dial(addr, job)
			if err != nil {
				errs[i] = err
				return
			}
			defer c.Close()
			assignments[i], summaries[i], errs[i] = c.RunEpoch()
		}(i, job)
	}
	wg.Wait()
	if err := <-srvErr; err != nil {
		t.Fatalf("server: %v", err)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("agent %d: %v", i, err)
		}
	}
	// Assignments form a perfect symmetric matching over 4 agents.
	partnerOf := make(map[int]int)
	for _, a := range assignments {
		if a.PartnerID < 0 {
			t.Fatalf("agent unassigned: %+v", a)
		}
	}
	for i, a := range assignments {
		// The wire protocol does not echo back our agent IDs in order, so
		// recover them from the registration order: agents registered
		// concurrently, but each client knows its own ID.
		_ = i
		partnerOf[a.PartnerID]++
	}
	if len(partnerOf) != 4 {
		t.Errorf("partners not distinct: %v", partnerOf)
	}
	for _, s := range summaries {
		if s.MeanPenalty <= 0 {
			t.Errorf("summary mean penalty = %v", s.MeanPenalty)
		}
		if s.Participating+s.BreakAways != 4 {
			t.Errorf("summary accounting: %+v", s)
		}
	}
}

func TestServerRejectsUnknownJob(t *testing.T) {
	srv, _ := testServer(t, 2, nil)
	addrCh := make(chan string, 1)
	go srv.Serve("127.0.0.1:0", func(a string) { addrCh <- a })
	addr := <-addrCh

	if _, err := Dial(addr, "nonesuch"); err == nil ||
		!strings.Contains(err.Error(), "unknown job") {
		t.Errorf("unknown job should be rejected, got %v", err)
	}

	// Let the epoch complete so the server goroutine exits.
	var wg sync.WaitGroup
	for _, job := range []string{"dedup", "swapt"} {
		wg.Add(1)
		go func(job string) {
			defer wg.Done()
			c, err := Dial(addr, job)
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer c.Close()
			if _, _, err := c.RunEpoch(); err != nil {
				t.Errorf("epoch: %v", err)
			}
		}(job)
	}
	wg.Wait()
}

func TestServerValidation(t *testing.T) {
	if err := (&Server{}).Serve("127.0.0.1:0", nil); err == nil {
		t.Error("zero epoch accepted")
	}
	if err := (&Server{Epoch: 2}).Serve("127.0.0.1:0", nil); err == nil {
		t.Error("missing catalog accepted")
	}
}

// TestServeRejectsUnservableMatrix: Serve validates the penalty matrix
// before it listens. Accepted, an Inf or NaN cell made its pair's
// assignment unencodable, so a healthy agent was reaped as a dead peer,
// and a matrix short of the catalog indexed out of range at the first
// clear.
func TestServeRejectsUnservableMatrix(t *testing.T) {
	_, catalog := testServer(t, 2, nil)
	n := len(catalog)
	for name, mutate := range map[string]func([][]float64) [][]float64{
		"inf cell":   func(m [][]float64) [][]float64 { m[0][1] = math.Inf(1); return m },
		"nan cell":   func(m [][]float64) [][]float64 { m[n-1][0] = math.NaN(); return m },
		"short":      func(m [][]float64) [][]float64 { return m[:n-1] },
		"ragged row": func(m [][]float64) [][]float64 { m[2] = m[2][:n-1]; return m },
	} {
		srv, _ := testServer(t, 2, nil)
		srv.Penalties = mutate(srv.Penalties)
		err := srv.Serve("127.0.0.1:0", func(string) {
			t.Errorf("%s: Serve accepted a matrix it cannot serve", name)
			go srv.Shutdown()
		})
		if err == nil || err == ErrServerClosed {
			t.Errorf("%s: Serve = %v, want a validation error", name, err)
		}
	}
}

func TestClientBreakAwayAssessment(t *testing.T) {
	srv, _ := testServer(t, 2, policy.Greedy{})
	addrCh := make(chan string, 1)
	srvErr := make(chan error, 1)
	go func() {
		srvErr <- srv.Serve("127.0.0.1:0", func(a string) { addrCh <- a })
	}()
	addr := <-addrCh

	var wg sync.WaitGroup
	var summary Message
	for i, job := range []string{"correlation", "dedup"} {
		wg.Add(1)
		go func(i int, job string) {
			defer wg.Done()
			c, err := Dial(addr, job)
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer c.Close()
			if i == 1 {
				// dedup believes swaptions would be a far better partner.
				c.Penalties = map[string]float64{"swapt": 0.001}
			}
			_, s, err := c.RunEpoch()
			if err != nil {
				t.Errorf("epoch: %v", err)
				return
			}
			if i == 1 {
				summary = s
			}
		}(i, job)
	}
	wg.Wait()
	if err := <-srvErr; err != nil {
		t.Fatalf("server: %v", err)
	}
	if summary.BreakAways < 1 {
		t.Errorf("dedup should recommend break-away: %+v", summary)
	}
}

func TestDialRejectsNonRegisterReply(t *testing.T) {
	// A server that responds with garbage to the registration.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		_, _ = conn.Write([]byte(`{"type":"assignment","partner_id":-1}` + "\n"))
	}()
	if _, err := Dial(ln.Addr().String(), "dedup"); err == nil {
		t.Error("non-registered reply accepted")
	}
}

func TestDialUnreachable(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", "dedup"); err == nil {
		t.Error("unreachable coordinator accepted")
	}
}

func TestClientRunEpochProtocolError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		_, _ = conn.Write([]byte(`{"type":"registered","agent_id":0,"partner_id":-1}` + "\n"))
		// Send a summary where an assignment is expected.
		_, _ = conn.Write([]byte(`{"type":"summary","partner_id":-1}` + "\n"))
		// Drain the client's assess so writes do not block.
		buf := make([]byte, 1024)
		_, _ = conn.Read(buf)
	}()
	c, err := Dial(ln.Addr().String(), "dedup")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.RunEpoch(); err == nil {
		t.Error("out-of-order protocol accepted")
	}
}

func TestServerRejectsMalformedRegistration(t *testing.T) {
	srv, _ := testServer(t, 1, nil)
	addrCh := make(chan string, 1)
	srvErr := make(chan error, 1)
	go func() {
		srvErr <- srv.Serve("127.0.0.1:0", func(a string) { addrCh <- a })
	}()
	addr := <-addrCh

	// Raw connection sending a non-register message: server replies with
	// an error and keeps listening.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = conn.Write([]byte(`{"type":"assess"}` + "\n"))
	reply := make([]byte, 512)
	n, _ := conn.Read(reply)
	if !strings.Contains(string(reply[:n]), "expected register") {
		t.Errorf("reply = %q", reply[:n])
	}
	conn.Close()

	// A proper agent completes the epoch.
	c, err := Dial(addr, "dedup")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.RunEpoch(); err != nil {
		t.Errorf("epoch: %v", err)
	}
	if err := <-srvErr; err != nil {
		t.Fatalf("server: %v", err)
	}
}

func TestServerBadListenAddress(t *testing.T) {
	srv, _ := testServer(t, 1, nil)
	if err := srv.Serve("256.0.0.1:99999", nil); err == nil {
		t.Error("bad address accepted")
	}
}

func TestRegisteredCarriesAgentIDZero(t *testing.T) {
	// Regression: agent_id used to carry omitempty, so the first agent's
	// "registered" reply (ID 0) dropped the field from the wire entirely.
	srv, _ := testServer(t, 1, nil)
	addrCh := make(chan string, 1)
	srvErr := make(chan error, 1)
	go func() {
		srvErr <- srv.Serve("127.0.0.1:0", func(a string) { addrCh <- a })
	}()
	addr := <-addrCh

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte(`{"type":"register","job":"dedup"}` + "\n")); err != nil {
		t.Fatal(err)
	}
	// Read the raw registered line to inspect the wire encoding itself;
	// the same buffered reader then feeds the decoder so no bytes of the
	// follow-on assignment are lost.
	br := bufio.NewReader(conn)
	line, err := br.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(line, `"agent_id":0`) {
		t.Errorf("registered reply must carry agent_id explicitly, got %q", line)
	}

	// Finish the epoch so the server goroutine exits cleanly. The assess
	// echoes the assignment's round sequence (a seq-less assess is also
	// accepted, but well-behaved clients echo it).
	enc := json.NewEncoder(conn)
	dec := json.NewDecoder(br)
	var assignment Message
	if err := dec.Decode(&assignment); err != nil {
		t.Fatal(err)
	}
	if assignment.Seq == 0 {
		t.Error("assignment carries no round sequence")
	}
	if err := enc.Encode(Message{Type: "assess", Action: "participate", Seq: assignment.Seq}); err != nil {
		t.Fatal(err)
	}
	var summary Message
	if err := dec.Decode(&summary); err != nil {
		t.Fatal(err)
	}
	if err := <-srvErr; err != nil {
		t.Fatalf("server: %v", err)
	}
}

func TestMultiEpochServe(t *testing.T) {
	srv, _ := testServer(t, 2, policy.Greedy{})
	srv.Epochs = 3
	srv.Metrics = telemetry.NewRegistry()
	var epochsSeen []int
	srv.OnEpoch = func(e int, sum Message) {
		epochsSeen = append(epochsSeen, e)
		if sum.Participating+sum.BreakAways != 2 {
			t.Errorf("epoch %d summary accounting: %+v", e, sum)
		}
	}
	addrCh := make(chan string, 1)
	srvErr := make(chan error, 1)
	go func() {
		srvErr <- srv.Serve("127.0.0.1:0", func(a string) { addrCh <- a })
	}()
	addr := <-addrCh

	var wg sync.WaitGroup
	for _, job := range []string{"correlation", "dedup"} {
		wg.Add(1)
		go func(job string) {
			defer wg.Done()
			c, err := Dial(addr, job)
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer c.Close()
			for e := 0; e < 3; e++ {
				if _, _, err := c.RunEpoch(); err != nil {
					t.Errorf("epoch %d: %v", e, err)
					return
				}
			}
		}(job)
	}
	wg.Wait()
	if err := <-srvErr; err != nil {
		t.Fatalf("server: %v", err)
	}
	if len(epochsSeen) != 3 || epochsSeen[0] != 0 || epochsSeen[2] != 2 {
		t.Errorf("OnEpoch saw %v, want [0 1 2]", epochsSeen)
	}
	snap := srv.Metrics.Snapshot()
	if got := snap.Counter("epoch.count"); got != 3 {
		t.Errorf("epoch.count = %d, want 3", got)
	}
	if got := snap.Counter("net.connections"); got != 2 {
		t.Errorf("net.connections = %d, want 2", got)
	}
	if got := snap.Counter("net.msg_in.assess"); got != 6 {
		t.Errorf("net.msg_in.assess = %d, want 6", got)
	}
	if h, ok := snap.Histograms["net.epoch_latency_s"]; !ok || h.Count != 3 {
		t.Errorf("net.epoch_latency_s count = %+v, want 3 observations", h)
	}
}

func TestShutdownBeforeRegistration(t *testing.T) {
	srv, _ := testServer(t, 2, nil)
	addrCh := make(chan string, 1)
	srvErr := make(chan error, 1)
	go func() {
		srvErr <- srv.Serve("127.0.0.1:0", func(a string) { addrCh <- a })
	}()
	<-addrCh
	srv.Shutdown()
	if err := <-srvErr; err != ErrServerClosed {
		t.Errorf("Serve after Shutdown = %v, want ErrServerClosed", err)
	}
	// A second Shutdown is a no-op.
	srv.Shutdown()
}

// TestShutdownDuringHalfWrittenRegistration extends the shutdown-race
// coverage: an agent that connected and wrote half a register message —
// no terminating newline, so the decoder stays blocked — must not wedge
// Shutdown. Run under -race (make race / make chaos).
func TestShutdownDuringHalfWrittenRegistration(t *testing.T) {
	srv, _ := testServer(t, 2, nil)
	addrCh := make(chan string, 1)
	srvErr := make(chan error, 1)
	go func() {
		srvErr <- srv.Serve("127.0.0.1:0", func(a string) { addrCh <- a })
	}()
	addr := <-addrCh

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte(`{"type":"register","job":"ded`)); err != nil {
		t.Fatal(err)
	}
	// Give the registration goroutine a moment to block on the torn
	// message, then race Shutdown against it.
	time.Sleep(20 * time.Millisecond)
	done := make(chan struct{})
	go func() {
		srv.Shutdown()
		close(done)
	}()
	select {
	case err := <-srvErr:
		if err != ErrServerClosed {
			t.Errorf("Serve = %v, want ErrServerClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve wedged on a half-written registration during Shutdown")
	}
	<-done
}

// TestServerReapsMutePeer is the regression for the wedged-Serve bug: an
// agent that registers and then goes mute used to block the assessment
// collection forever. Now the mute session hits its read deadline, is
// reaped, and the survivor is re-matched (solo) so the epoch completes.
func TestServerReapsMutePeer(t *testing.T) {
	srv, _ := testServer(t, 2, policy.Greedy{})
	srv.Metrics = telemetry.NewRegistry()
	srv.ReadTimeout = 150 * time.Millisecond
	addrCh := make(chan string, 1)
	srvErr := make(chan error, 1)
	go func() {
		srvErr <- srv.Serve("127.0.0.1:0", func(a string) { addrCh <- a })
	}()
	addr := <-addrCh

	// The mute peer registers properly and then never speaks again.
	mute, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer mute.Close()
	if _, err := mute.Write([]byte(`{"type":"register","job":"swapt"}` + "\n")); err != nil {
		t.Fatal(err)
	}

	c, err := Dial(addr, "dedup")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	assignment, summary, err := c.RunEpoch()
	if err != nil {
		t.Fatalf("surviving agent: %v", err)
	}
	if assignment.PartnerID != -1 {
		t.Errorf("survivor re-matched to %d, want solo (-1)", assignment.PartnerID)
	}
	if summary.Participating != 1 {
		t.Errorf("summary participating = %d, want 1", summary.Participating)
	}
	if err := <-srvErr; err != nil {
		t.Fatalf("server: %v", err)
	}
	snap := srv.Metrics.Snapshot()
	if got := snap.Counter("net.reaped"); got != 1 {
		t.Errorf("net.reaped = %d, want 1", got)
	}
	if got := snap.Counter("epoch.degraded"); got != 1 {
		t.Errorf("epoch.degraded = %d, want 1", got)
	}
}

// TestClientReadDeadlineOnMuteCoordinator is the client half of the
// silent-peer regression: a coordinator that registers the agent and
// then hangs must not block RunEpoch forever, even with fault injection
// off.
func TestClientReadDeadlineOnMuteCoordinator(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		// Register the agent, then go mute with the conn held open.
		_, _ = conn.Write([]byte(`{"type":"registered","agent_id":0,"partner_id":-1}` + "\n"))
		time.Sleep(10 * time.Second)
		conn.Close()
	}()
	c, err := Dial(ln.Addr().String(), "dedup")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.ReadTimeout = 100 * time.Millisecond
	start := time.Now()
	if _, _, err := c.RunEpoch(); err == nil {
		t.Fatal("RunEpoch returned nil against a mute coordinator")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("RunEpoch took %v to time out, want prompt return", elapsed)
	}
}

// TestDialConnectTimeout pins the connect-timeout bugfix: dialing a
// blackholed address must return promptly instead of hanging in the
// kernel's connect retry for minutes. 203.0.113.1 (TEST-NET-3) is
// reserved documentation space: unrouted hosts fail fast, firewalled
// ones hit the 250ms dial timeout — either way the call returns quickly.
func TestDialConnectTimeout(t *testing.T) {
	start := time.Now()
	_, err := DialWith("203.0.113.1:9", "dedup", DialOptions{Timeout: 250 * time.Millisecond})
	if err == nil {
		t.Fatal("dial to a blackholed address succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("dial took %v, want prompt failure", elapsed)
	}
}

// TestDialBackoffSchedule drives the retry ladder entirely on a fake
// clock: four attempts, all failed by the injector, with the doubling
// capped — and the test completes instantly while asserting the exact
// 100+200+250ms backoff the real clock would have slept.
func TestDialBackoffSchedule(t *testing.T) {
	reg := telemetry.NewRegistry()
	clock := faults.NewFakeClock(time.Unix(0, 0))
	plan := faults.NewPlan(faults.Config{Seed: 7, ConnectFailProb: 1}, reg, clock)
	_, err := DialWith("127.0.0.1:1", "dedup", DialOptions{
		Retries:    3,
		Backoff:    100 * time.Millisecond,
		MaxBackoff: 250 * time.Millisecond,
		Clock:      clock,
		Faults:     plan.Injector(0),
		Metrics:    reg,
		Jitter:     func() float64 { return 1 }, // sleep the full backoff
	})
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("err = %v, want wrapped ErrInjected", err)
	}
	snap := reg.Snapshot()
	if got := snap.Counter("net.retry"); got != 3 {
		t.Errorf("net.retry = %d, want 3", got)
	}
	if got := snap.Counter("fault.injected.connect_fail"); got != 4 {
		t.Errorf("connect_fail = %d, want 4 (initial + 3 retries)", got)
	}
	if want := 550 * time.Millisecond; clock.Slept() != want {
		t.Errorf("backoff slept %v, want %v (100+200+250ms)", clock.Slept(), want)
	}
}

// TestDialDoesNotRetryRejections: a coordinator that answered and said
// no is a permanent failure; burning the retry budget on it would only
// re-annoy it.
func TestDialDoesNotRetryRejections(t *testing.T) {
	srv, _ := testServer(t, 2, nil)
	addrCh := make(chan string, 1)
	go srv.Serve("127.0.0.1:0", func(a string) { addrCh <- a })
	addr := <-addrCh
	defer srv.Shutdown()

	reg := telemetry.NewRegistry()
	clock := faults.NewFakeClock(time.Unix(0, 0))
	_, err := DialWith(addr, "nonesuch", DialOptions{
		Retries: 5,
		Clock:   clock,
		Metrics: reg,
	})
	if err == nil || !strings.Contains(err.Error(), "unknown job") {
		t.Fatalf("err = %v, want unknown-job rejection", err)
	}
	if got := reg.Snapshot().Counter("net.retry"); got != 0 {
		t.Errorf("net.retry = %d, want 0 for a permanent rejection", got)
	}
	if clock.Slept() != 0 {
		t.Errorf("slept %v on a permanent rejection", clock.Slept())
	}
}

// TestRejoinGetsFreshAgentID: a crashed agent that comes back registers
// as a new session under a never-reused AgentID, and the epoch its death
// degraded still completes for the survivor.
func TestRejoinGetsFreshAgentID(t *testing.T) {
	srv, _ := testServer(t, 2, policy.Greedy{})
	srv.Epochs = 2
	srv.Metrics = telemetry.NewRegistry()
	srv.ReadTimeout = 150 * time.Millisecond

	addrCh := make(chan string, 2)
	srvErr := make(chan error, 1)
	firstCh := make(chan *Client, 1)
	rejoinedCh := make(chan *Client, 1)
	srv.BeforeEpoch = func(e int) {
		if e != 1 {
			return
		}
		// Crash the first agent at the epoch boundary — it has finished
		// epoch 0 (its goroutine pushed the client) — and rejoin at once.
		// The registration completes inside this callback; the fresh
		// session waits in the admission queue.
		if first := <-firstCh; first != nil {
			first.Close()
		}
		c, err := Dial(<-addrCh, "correlation")
		if err != nil {
			t.Errorf("rejoin dial: %v", err)
			rejoinedCh <- nil
			return
		}
		rejoinedCh <- c
	}
	go func() {
		srvErr <- srv.Serve("127.0.0.1:0", func(a string) { addrCh <- a; addrCh <- a })
	}()
	addr := <-addrCh

	var wg sync.WaitGroup
	firstID := make(chan int, 1)
	wg.Add(1)
	go func() { // participates in epoch 0 only, then is crashed
		defer wg.Done()
		c, err := Dial(addr, "correlation")
		if err != nil {
			t.Errorf("first dial: %v", err)
			firstID <- -1
			firstCh <- nil
			return
		}
		firstID <- c.AgentID
		if _, _, err := c.RunEpoch(); err != nil {
			t.Errorf("first epoch 0: %v", err)
		}
		firstCh <- c
	}()
	wg.Add(1)
	go func() { // survives both epochs
		defer wg.Done()
		c, err := Dial(addr, "dedup")
		if err != nil {
			t.Errorf("second dial: %v", err)
			return
		}
		defer c.Close()
		for e := 0; e < 2; e++ {
			if _, _, err := c.RunEpoch(); err != nil {
				t.Errorf("second epoch %d: %v", e, err)
				return
			}
		}
	}()
	wg.Wait()
	if err := <-srvErr; err != nil {
		t.Fatalf("server: %v", err)
	}
	rejoined := <-rejoinedCh
	if rejoined == nil {
		t.Fatal("rejoin never completed")
	}
	defer rejoined.Close()
	if fid := <-firstID; rejoined.AgentID == fid || rejoined.AgentID != 2 {
		t.Errorf("rejoined AgentID = %d, want fresh ID 2 (crashed agent held %d)", rejoined.AgentID, fid)
	}
	snap := srv.Metrics.Snapshot()
	if got := snap.Counter("net.reaped"); got < 1 {
		t.Errorf("net.reaped = %d, want >= 1 after the crash", got)
	}
	if got := snap.Counter("epoch.degraded"); got != 1 {
		t.Errorf("epoch.degraded = %d, want 1", got)
	}
}

// TestRegisteredReplyPrecedesFirstAssignment pins the registration write
// race: a session is queued for admission before its "registered" reply
// goes out, so the Serve goroutine can push the first assignment while
// the registration goroutine still owes the reply. Both writers funnel
// through the session's write mutex and flush the pending reply first —
// the client must see exactly one "registered", before any assignment,
// regardless of which goroutine wins.
func TestRegisteredReplyPrecedesFirstAssignment(t *testing.T) {
	srv := &Server{}
	client, server := net.Pipe()
	defer client.Close()
	sess := &session{
		conn:       server,
		id:         7,
		needsReply: true,
	}
	sendErr := make(chan error, 1)
	go func() {
		// Serve goroutine wins the race: assignment push first.
		sendErr <- srv.send(sess, Message{Type: "assignment", Seq: 1, PartnerID: -1})
		// The registration goroutine flushes afterwards: must be a no-op,
		// not a duplicate reply.
		sess.writeMu.Lock()
		err := srv.flushReplyLocked(sess)
		sess.writeMu.Unlock()
		if err != nil {
			t.Errorf("late flushReply: %v", err)
		}
		server.Close()
	}()
	dec := json.NewDecoder(client)
	var types []string
	var first Message
	for {
		var m Message
		if err := dec.Decode(&m); err != nil {
			break
		}
		if len(types) == 0 {
			first = m
		}
		types = append(types, m.Type)
	}
	if err := <-sendErr; err != nil {
		t.Fatalf("send: %v", err)
	}
	if len(types) != 2 || types[0] != "registered" || types[1] != "assignment" {
		t.Fatalf("wire order = %v, want [registered assignment]", types)
	}
	if first.AgentID != 7 {
		t.Errorf("registered reply AgentID = %d, want 7", first.AgentID)
	}
}

// TestShutdownDuringInitialFillClosesRegisteredConns: Shutdown while the
// server is still waiting for the rest of the initial population must
// close the conns of agents that already registered — the cleanup used
// to be installed only after the fill completed, leaking them.
func TestShutdownDuringInitialFillClosesRegisteredConns(t *testing.T) {
	srv, _ := testServer(t, 2, nil)
	addrCh := make(chan string, 1)
	srvErr := make(chan error, 1)
	go func() {
		srvErr <- srv.Serve("127.0.0.1:0", func(a string) { addrCh <- a })
	}()
	addr := <-addrCh

	c, err := Dial(addr, "dedup") // 1 of 2: the fill loop keeps waiting
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv.Shutdown()
	if err := <-srvErr; err != ErrServerClosed {
		t.Fatalf("Serve = %v, want ErrServerClosed", err)
	}
	done := make(chan error, 1)
	go func() {
		_, _, err := c.RunEpoch()
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Error("RunEpoch succeeded against a shut-down server")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("registered conn not closed by Shutdown during the initial fill")
	}
}

// TestClientWriteDeadlineOnStalledCoordinator: an agent writing its
// assessment to a coordinator that has stopped reading (full TCP buffer)
// must fail at the write deadline instead of blocking indefinitely.
// net.Pipe makes the stall exact: a write blocks until the peer reads.
func TestClientWriteDeadlineOnStalledCoordinator(t *testing.T) {
	client, server := net.Pipe()
	defer server.Close()
	c := &Client{
		conn:         client,
		rd:           newLineReader(client),
		ReadTimeout:  5 * time.Second,
		WriteTimeout: 100 * time.Millisecond,
	}
	defer c.Close()
	go func() {
		// Push an assignment, then never read the assess reply.
		_, _ = server.Write([]byte(`{"type":"assignment","partner_id":-1,"seq":1}` + "\n"))
	}()
	start := time.Now()
	if _, _, err := c.RunEpoch(); err == nil {
		t.Fatal("RunEpoch succeeded against a coordinator that never reads")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("RunEpoch took %v to fail, want the 100ms write deadline", elapsed)
	}
}

func TestShutdownDrainsInFlightEpoch(t *testing.T) {
	srv, _ := testServer(t, 2, policy.Greedy{})
	srv.Epochs = 100
	srv.OnEpoch = func(e int, _ Message) {
		if e == 0 {
			srv.Shutdown() // drain: finish epoch 0, then stop
		}
	}
	addrCh := make(chan string, 1)
	srvErr := make(chan error, 1)
	go func() {
		srvErr <- srv.Serve("127.0.0.1:0", func(a string) { addrCh <- a })
	}()
	addr := <-addrCh

	var wg sync.WaitGroup
	for _, job := range []string{"correlation", "dedup"} {
		wg.Add(1)
		go func(job string) {
			defer wg.Done()
			c, err := Dial(addr, job)
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer c.Close()
			if _, _, err := c.RunEpoch(); err != nil {
				t.Errorf("epoch: %v", err)
			}
		}(job)
	}
	wg.Wait()
	if err := <-srvErr; err != ErrServerClosed {
		t.Errorf("Serve = %v, want ErrServerClosed after drain", err)
	}
}

// A sharded coordinator (Shards > 1) clears the epoch through the shard
// market: assignments stay symmetric in wire-ID space, every agent lands
// in exactly one shard_matched event, each assignment push names its
// shard, and the epoch snapshot pins the shard count for auditors.
func TestShardedEpochOverWire(t *testing.T) {
	const agents = 12
	srv, catalog := testServer(t, agents, policy.StableRoommate{})
	srv.Shards = 4
	srv.Events = telemetry.NewEventRing(4096)
	addrCh := make(chan string, 1)
	srvErr := make(chan error, 1)
	go func() {
		srvErr <- srv.Serve("127.0.0.1:0", func(a string) { addrCh <- a })
	}()
	addr := <-addrCh

	var wg sync.WaitGroup
	assignments := make([]Message, agents)
	ids := make([]int, agents)
	errs := make([]error, agents)
	for i := 0; i < agents; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(addr, catalog[i%len(catalog)].Name)
			if err != nil {
				errs[i] = err
				return
			}
			defer c.Close()
			ids[i] = c.AgentID
			assignments[i], _, errs[i] = c.RunEpoch()
		}(i)
	}
	wg.Wait()
	if err := <-srvErr; err != nil {
		t.Fatalf("server: %v", err)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("agent %d: %v", i, err)
		}
	}

	// Symmetric matching in wire-ID space; paired agents share a shard
	// only when refinement did not cross a boundary, so check symmetry,
	// not shard equality.
	partner := make(map[int]int, agents)
	for i, a := range assignments {
		partner[ids[i]] = a.PartnerID
	}
	paired := 0
	for id, p := range partner {
		if p < 0 {
			continue
		}
		paired++
		if back, ok := partner[p]; !ok || back != id {
			t.Errorf("agent %d paired with %d, but %d paired with %d", id, p, p, back)
		}
	}
	// Each shard pairs internally, so at most one solo per odd-size shard.
	if paired < agents-4 {
		t.Errorf("only %d of %d agents paired", paired, agents)
	}

	// Flight recorder: the snapshot records the shard count and the
	// shard_matched events cover every wire agent exactly once.
	seen := map[int]int{}
	shardEvents := 0
	for _, e := range srv.Events.Events() {
		switch e.Type {
		case telemetry.EventEpochSnapshot:
			snap, err := e.SnapshotPayload()
			if err != nil {
				t.Fatalf("snapshot: %v", err)
			}
			if snap.Shards != 4 {
				t.Errorf("snapshot shards = %d, want 4", snap.Shards)
			}
		case telemetry.EventShardMatched:
			shardEvents++
			var members []int
			if err := json.Unmarshal([]byte(e.Data), &members); err != nil {
				t.Fatalf("shard_matched data %q: %v", e.Data, err)
			}
			if int(e.Value) != len(members) {
				t.Errorf("shard %d event value %v != %d members", e.Round, e.Value, len(members))
			}
			for _, id := range members {
				seen[id]++
			}
		}
	}
	if shardEvents == 0 {
		t.Fatal("no shard_matched events recorded")
	}
	if len(seen) != agents {
		t.Errorf("shard events cover %d agents, want %d", len(seen), agents)
	}
	for id, n := range seen {
		if n != 1 {
			t.Errorf("agent %d appears in %d shards", id, n)
		}
	}
}
