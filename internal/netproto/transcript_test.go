package netproto

// Golden wire transcripts: every byte that crosses the wire in one batch
// session and one streaming session, both directions, pinned in
// testdata/. They are the byte-identity proof for the wire encoding (a
// codec change that alters one byte of one message fails here) and the
// committed corpus the message fuzzer starts from.
//
// Neither transcript depends on timing. Agents dial one after another,
// so wire IDs follow dial order; the protocol is lockstep per
// connection, so the two directions of one connection interleave in
// causal order; and the streaming session's joins register at the
// BeforeEpoch barrier, as the chaos soak's rejoins do.

import (
	"bytes"
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"cooper/internal/policy"
	"cooper/internal/telemetry"
)

var updateTranscripts = flag.Bool("update", false, "rewrite the golden wire transcripts in testdata/")

// wireTap is a loopback proxy in front of a coordinator that records
// every line crossing it, per connection, in the order the proxy saw
// them. A line is recorded before it is forwarded, so a reply can never
// be logged ahead of the message it answers.
type wireTap struct {
	ln     net.Listener
	target string
	wg     sync.WaitGroup
	mu     sync.Mutex
	conns  []*tapLog // accept order
}

type tapLog struct {
	mu    sync.Mutex
	lines []string
}

func newWireTap(t *testing.T, target string) *wireTap {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tap := &wireTap{ln: ln, target: target}
	tap.wg.Add(1)
	go tap.accept()
	return tap
}

func (tap *wireTap) addr() string { return tap.ln.Addr().String() }

func (tap *wireTap) accept() {
	defer tap.wg.Done()
	for {
		agent, err := tap.ln.Accept()
		if err != nil {
			return
		}
		coord, err := net.Dial("tcp", tap.target)
		if err != nil {
			agent.Close()
			continue
		}
		log := &tapLog{}
		tap.mu.Lock()
		tap.conns = append(tap.conns, log)
		tap.mu.Unlock()
		tap.wg.Add(2)
		go tap.pipe(log, "> ", agent, coord)
		go tap.pipe(log, "< ", coord, agent)
	}
}

// pipe copies src to dst, recording each complete line under dir. When
// either side ends, both conns close, as a real peer's would.
func (tap *wireTap) pipe(log *tapLog, dir string, src, dst net.Conn) {
	defer tap.wg.Done()
	defer dst.Close()
	defer src.Close()
	var partial []byte
	buf := make([]byte, 64<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			partial = append(partial, buf[:n]...)
			log.mu.Lock()
			for {
				i := bytes.IndexByte(partial, '\n')
				if i < 0 {
					break
				}
				log.lines = append(log.lines, dir+string(partial[:i]))
				partial = partial[i+1:]
			}
			log.mu.Unlock()
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return
			}
		}
		if err != nil {
			if len(partial) > 0 {
				log.mu.Lock()
				log.lines = append(log.lines, dir+string(partial)+" (unterminated)")
				log.mu.Unlock()
			}
			return
		}
	}
}

// transcript closes the tap and renders every connection's log: a
// header per connection, then its lines, "> " agent to coordinator and
// "< " coordinator to agent.
func (tap *wireTap) transcript(names []string) string {
	tap.ln.Close()
	tap.wg.Wait()
	var b bytes.Buffer
	for i, log := range tap.conns {
		name := "?"
		if i < len(names) {
			name = names[i]
		}
		fmt.Fprintf(&b, "# connection %d (%s)\n", i, name)
		for _, l := range log.lines {
			b.WriteString(l)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// checkTranscript compares got with testdata/name, or rewrites the file
// under -update.
func checkTranscript(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateTranscripts {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		gl, wl := bytes.Split([]byte(got), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w []byte
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if !bytes.Equal(g, w) {
				t.Fatalf("%s: first difference at line %d:\n got: %s\nwant: %s", path, i+1, g, w)
			}
		}
	}
}

// runAgents runs epochs RunEpochs on each client concurrently and
// closes it.
func runAgents(t *testing.T, wg *sync.WaitGroup, epochs int, clients ...*Client) {
	for _, c := range clients {
		wg.Add(1)
		go func(c *Client) {
			defer wg.Done()
			defer c.Close()
			for e := 0; e < epochs; e++ {
				if _, _, err := c.RunEpoch(); err != nil {
					t.Errorf("agent %d epoch %d: %v", c.AgentID, e, err)
					return
				}
			}
		}(c)
	}
}

// serveTapped starts srv behind a wire tap.
func serveTapped(t *testing.T, srv *Server) (*wireTap, chan error) {
	t.Helper()
	addrCh := make(chan string, 1)
	srvErr := make(chan error, 1)
	go func() {
		srvErr <- srv.Serve("127.0.0.1:0", func(a string) { addrCh <- a })
	}()
	return newWireTap(t, <-addrCh), srvErr
}

// TestGoldenTranscriptBatch pins a batch session byte for byte: SMR, 4
// agents, 2 epochs, a seeded trace context on the registration replies
// echoed on every assessment, and one agent that recommends break-away.
func TestGoldenTranscriptBatch(t *testing.T) {
	srv, _ := testServer(t, 4, policy.StableMarriageRandom{})
	srv.Epochs = 2
	srv.Seed = 11
	srv.Span = telemetry.NewSpanSeeded("coordinator", 11)
	tap, srvErr := serveTapped(t, srv)

	jobs := []string{"correlation", "dedup", "swapt", "stream"}
	clients := make([]*Client, len(jobs))
	for i, job := range jobs {
		c, err := Dial(tap.addr(), job)
		if err != nil {
			t.Fatal(err)
		}
		if job == "dedup" {
			c.Penalties = map[string]float64{"swapt": 0.0001}
		}
		clients[i] = c
	}
	var wg sync.WaitGroup
	runAgents(t, &wg, 2, clients...)
	wg.Wait()
	if err := <-srvErr; err != nil {
		t.Fatalf("server: %v", err)
	}
	checkTranscript(t, "batch.transcript", tap.transcript(jobs))
}

// TestGoldenTranscriptRematch pins a streaming session: two agents open
// a 2-shard Rematch server, two more register at the second epoch's
// barrier and join that epoch.
func TestGoldenTranscriptRematch(t *testing.T) {
	srv, _ := testServer(t, 2, policy.Greedy{})
	srv.Epochs = 2
	srv.Seed = 5
	srv.Rematch = true
	srv.Shards = 2
	jobs := []string{"correlation", "dedup", "kmeans", "canneal"}
	var wg sync.WaitGroup
	tapAddr := make(chan string, 1)
	srv.BeforeEpoch = func(e int) {
		if e != 1 {
			return
		}
		addr := <-tapAddr
		for _, job := range jobs[2:] {
			c, err := Dial(addr, job)
			if err != nil {
				t.Errorf("barrier dial: %v", err)
				return
			}
			runAgents(t, &wg, 1, c)
		}
	}
	tap, srvErr := serveTapped(t, srv)
	tapAddr <- tap.addr()
	for _, job := range jobs[:2] {
		c, err := Dial(tap.addr(), job)
		if err != nil {
			t.Fatal(err)
		}
		runAgents(t, &wg, 2, c)
	}
	if err := <-srvErr; err != nil {
		t.Fatalf("server: %v", err)
	}
	wg.Wait()
	checkTranscript(t, "rematch.transcript", tap.transcript(jobs))
}
