package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"cooper"
	"cooper/internal/arch"
	"cooper/internal/audit"
	"cooper/internal/netproto"
	"cooper/internal/profiler"
	"cooper/internal/telemetry"
	"cooper/internal/workload"
)

// coordinator is the process under test on the wire workloads: a live
// cooperd subprocess, or — for the smoke test, which may not build binaries
// — a netproto.Server configured the way cooperd configures it.
type coordinator interface {
	addr() string
	procs() int
	cpu() time.Duration // CPU consumed so far
	// stop ends the coordinator gracefully and reports what it exported.
	stop() (*coordReport, error)
}

type coordOptions struct {
	workload string
	agents   int
	shards   int
	rematch  bool
	seed     int64
	traced   bool // -events-out
	outDir   string
}

// coordReport is what a stopped coordinator exported: its final telemetry
// snapshot, its resource use, and in a traced run its event log.
type coordReport struct {
	snap   telemetry.Snapshot
	rssMB  float64
	cpu    time.Duration
	events []telemetry.Event
}

func startCoordinator(bin string, o coordOptions) (coordinator, error) {
	if bin == "" {
		return startServer(o)
	}
	return startCooperd(bin, o)
}

// cooperdProc is a live cooperd subprocess.
type cooperdProc struct {
	cmd        *exec.Cmd
	bound      string
	gomaxprocs int
	eventsPath string
	stderr     bytes.Buffer

	// Written by drain, read only after exited is closed.
	stdout bytes.Buffer
	waitEr error
	exited chan struct{} // closed once stdout hit EOF and Wait returned
}

var boundAddr = regexp.MustCompile(`^cooperd: coordinating \d+-agent epochs on (\S+) with `)

// cooperd runs epochs until it is told to stop.
const endlessEpochs = 1 << 30

func startCooperd(bin string, o coordOptions) (*cooperdProc, error) {
	args := []string{
		"-addr", "127.0.0.1:0",
		"-epoch", strconv.Itoa(o.agents),
		"-epochs", strconv.Itoa(endlessEpochs),
		"-policy", "SMR",
		"-shards", strconv.Itoa(o.shards),
		"-seed", strconv.FormatInt(o.seed, 10),
	}
	if o.rematch {
		args = append(args, "-rematch")
	}
	p := &cooperdProc{exited: make(chan struct{})}
	if o.traced {
		if err := os.MkdirAll(o.outDir, 0o755); err != nil {
			return nil, err
		}
		p.eventsPath = filepath.Join(o.outDir, "events-"+o.workload+".jsonl")
		if err := os.Remove(p.eventsPath); err != nil && !os.IsNotExist(err) {
			return nil, err // cooperd appends: a stale log would be audited too
		}
		args = append(args, "-events-out", p.eventsPath)
	}
	// The generator keeps one core; cooperd gets the rest, up to four.
	p.gomaxprocs = max(1, min(runtime.NumCPU()-1, 4))
	p.cmd = exec.Command(bin, args...)
	p.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(p.gomaxprocs))
	p.cmd.Stderr = &p.stderr
	out, err := p.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	bound := make(chan string, 1)
	go p.drain(out, bound)
	select {
	case p.bound = <-bound:
		return p, nil
	case <-p.exited:
		return nil, fmt.Errorf("cooperd exited before listening: %v\n%s", p.waitEr, p.stderr.String())
	case <-time.After(20 * time.Second):
		p.kill()
		return nil, fmt.Errorf("cooperd did not announce its address\n%s", p.stderr.String())
	}
}

// drain copies cooperd's stdout, announces the bound address once, and
// reaps the process at EOF.
func (p *cooperdProc) drain(out io.Reader, bound chan<- string) {
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	announced := false
	for sc.Scan() {
		line := sc.Text()
		if !announced {
			if m := boundAddr.FindStringSubmatch(line); m != nil {
				announced = true
				bound <- m[1]
			}
		}
		p.stdout.WriteString(line)
		p.stdout.WriteByte('\n')
	}
	io.Copy(io.Discard, out) // a line past the scanner's limit: keep the pipe moving
	p.waitEr = p.cmd.Wait()
	close(p.exited)
}

func (p *cooperdProc) addr() string { return p.bound }
func (p *cooperdProc) procs() int   { return p.gomaxprocs }

// cpu reads utime+stime of the live process from /proc; zero where that
// does not exist.
func (p *cooperdProc) cpu() time.Duration {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th of the line, in clock ticks of 10 ms.
	rest := data[bytes.LastIndexByte(data, ')')+1:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0
	}
	utime, _ := strconv.ParseInt(f[11], 10, 64)
	stime, _ := strconv.ParseInt(f[12], 10, 64)
	return time.Duration(utime+stime) * 10 * time.Millisecond
}

func (p *cooperdProc) kill() {
	p.cmd.Process.Kill()
	<-p.exited
}

// stop sends SIGTERM and waits for the drain; a cooperd still alive after
// five seconds is killed. Either way the process is reaped before stop
// returns, and its stderr is surfaced on failure.
func (p *cooperdProc) stop() (*coordReport, error) {
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.exited:
	case <-time.After(5 * time.Second):
		p.kill()
		return nil, fmt.Errorf("cooperd ignored SIGTERM for 5 s and was killed\n%s", p.stderr.String())
	}
	rep := &coordReport{cpu: p.cmd.ProcessState.UserTime() + p.cmd.ProcessState.SystemTime()}
	if ru, ok := p.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rep.rssMB = float64(ru.Maxrss) / 1024
	}
	const marker = "cooperd: final telemetry snapshot\n"
	stdout := p.stdout.String()
	at := strings.LastIndex(stdout, marker)
	if at < 0 {
		return nil, fmt.Errorf("cooperd printed no final telemetry snapshot (%v)\n%s", p.waitEr, p.stderr.String())
	}
	if p.waitEr != nil {
		return nil, fmt.Errorf("cooperd: %v\n%s", p.waitEr, p.stderr.String())
	}
	if err := json.NewDecoder(strings.NewReader(stdout[at+len(marker):])).Decode(&rep.snap); err != nil {
		return nil, fmt.Errorf("parsing cooperd's telemetry snapshot: %w", err)
	}
	if p.eventsPath != "" {
		f, err := os.Open(p.eventsPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if rep.events, err = telemetry.ReadEvents(bufio.NewReaderSize(f, 1<<20)); err != nil {
			return nil, fmt.Errorf("reading %s: %w", p.eventsPath, err)
		}
	}
	return rep, nil
}

// serverCoord serves in this process what cooperd would: oracle penalties
// over the Table I catalog, SMR, the flight recorder always on.
type serverCoord struct {
	srv    *netproto.Server
	tel    *telemetry.Telemetry
	bound  string
	served chan error
	traced bool
}

func startServer(o coordOptions) (*serverCoord, error) {
	machine := arch.DefaultCMP()
	catalog, err := workload.Catalog(machine)
	if err != nil {
		return nil, err
	}
	tel := telemetry.NewSeeded(o.seed)
	if o.traced {
		tel.Events = telemetry.NewEventRing(1 << 18) // the whole smoke run, for the audit replay
	}
	s := &serverCoord{tel: tel, served: make(chan error, 1), traced: o.traced}
	s.srv = &netproto.Server{
		Epoch:     o.agents,
		Epochs:    endlessEpochs,
		Policy:    cooper.SMR(),
		Catalog:   catalog,
		Penalties: profiler.DensePenalties(machine, catalog),
		Kernel:    "oracle",
		Seed:      o.seed,
		Shards:    o.shards,
		Rematch:   o.rematch,
		Metrics:   tel.Registry(),
		Events:    tel.Events,
		Span:      tel.Trace,
	}
	bound := make(chan string, 1)
	go func() { s.served <- s.srv.Serve("127.0.0.1:0", func(a string) { bound <- a }) }()
	select {
	case s.bound = <-bound:
		return s, nil
	case err := <-s.served:
		return nil, err
	}
}

func (s *serverCoord) addr() string       { return s.bound }
func (s *serverCoord) procs() int         { return runtime.GOMAXPROCS(0) }
func (s *serverCoord) cpu() time.Duration { return selfCPU() }

func (s *serverCoord) stop() (*coordReport, error) {
	s.srv.Shutdown()
	select {
	case err := <-s.served:
		if err != nil && err != netproto.ErrServerClosed {
			return nil, err
		}
	case <-time.After(5 * time.Second):
		return nil, fmt.Errorf("in-process coordinator did not drain within 5 s")
	}
	rep := &coordReport{snap: s.tel.Snapshot(), rssMB: selfPeakRSSMB(), cpu: selfCPU()}
	if s.traced {
		rep.events = s.tel.Events.Events()
	}
	return rep, nil
}

// auditEpochs bounds the audit replay: the auditor's stability pass is
// quadratic in the population per assignment round, so a whole run's log
// would take longer to audit than to record.
const auditEpochs = 16

// auditEvents replays the head of a traced run's event log — its first
// auditEpochs epochs, and nothing recorded after the measured window closed
// (the teardown hangs every agent up at once) — through the invariant
// auditor; every violation is a failed check.
func auditEvents(m *measurement, events []telemetry.Event, cut time.Time) {
	a := audit.New(audit.Options{})
	ended := 0
	for _, e := range events {
		if e.TimeUnixNano > cut.UnixNano() || ended == auditEpochs {
			break
		}
		a.Feed(e)
		if e.Type == telemetry.EventEpochEnd {
			ended++
		}
	}
	rep := a.Finish()
	for _, v := range rep.Violations {
		m.failf("audit: %v", v)
	}
	if rep.Epochs == 0 {
		m.failf("audit: the event log holds no completed epoch")
	}
}
