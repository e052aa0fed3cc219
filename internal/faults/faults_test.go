package faults

import (
	"bufio"
	"errors"
	"net"
	"reflect"
	"testing"
	"time"

	"cooper/internal/telemetry"
)

func TestConfigValidate(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("zero config invalid: %v", err)
	}
	if err := Hostile(1).Validate(); err != nil {
		t.Errorf("hostile config invalid: %v", err)
	}
	if err := (Config{DropProb: 1.5}).Validate(); err == nil {
		t.Error("DropProb > 1 accepted")
	}
	if err := (Config{DropProb: -0.1}).Validate(); err == nil {
		t.Error("negative probability accepted")
	}
	if err := (Config{DropProb: 0.5, DupProb: 0.3, StallProb: 0.3}).Validate(); err == nil {
		t.Error("per-message probabilities summing past 1 accepted")
	}
}

func TestNilPlanAndInjectorAreNoOps(t *testing.T) {
	var p *Plan
	if in := p.Injector(3); in != nil {
		t.Errorf("nil plan injector = %v, want nil", in)
	}
	if got := p.CrashesDue(0); got != nil {
		t.Errorf("nil plan crashes = %v", got)
	}
	p.RecordCrash()
	p.RecordRejoin()
	if cfg := p.Config(); !reflect.DeepEqual(cfg, Config{}) {
		t.Errorf("nil plan config = %+v", cfg)
	}

	var in *Injector
	if in.FailConnect() {
		t.Error("nil injector fails connects")
	}
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	if got := in.Wrap(c1); got != c1 {
		t.Error("nil injector wrapped the conn")
	}
}

func TestInjectorStreamsAreDeterministicAndIndependent(t *testing.T) {
	cfg := Config{Seed: 42, DropProb: 0.3, DupProb: 0.2, StallProb: 0.2, ResetProb: 0.1}
	seq := func(key int64, n int) []action {
		p := NewPlan(cfg, nil, nil)
		in := p.Injector(key)
		out := make([]action, n)
		for i := range out {
			out[i] = in.writeAction()
		}
		return out
	}
	a := seq(1, 64)
	b := seq(1, 64)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed and key produced different fault sequences")
	}
	if reflect.DeepEqual(a, seq(2, 64)) {
		t.Error("distinct keys produced identical fault sequences")
	}

	// Reconnecting under the same key continues the stream rather than
	// restarting it: the second half drawn from a reused injector equals
	// the tail of one continuous draw.
	p := NewPlan(cfg, nil, nil)
	first := make([]action, 32)
	for i := range first {
		first[i] = p.Injector(7).writeAction()
	}
	second := make([]action, 32)
	for i := range second {
		second[i] = p.Injector(7).writeAction()
	}
	if got := append(first, second...); !reflect.DeepEqual(got, seq(7, 64)) {
		t.Error("injector reuse restarted the fault stream")
	}
}

func TestFailConnectCountsAndFires(t *testing.T) {
	reg := telemetry.NewRegistry()
	p := NewPlan(Config{Seed: 1, ConnectFailProb: 1}, reg, nil)
	in := p.Injector(0)
	for i := 0; i < 3; i++ {
		if !in.FailConnect() {
			t.Fatal("ConnectFailProb=1 did not fail")
		}
	}
	if got := reg.Snapshot().Counter("fault.injected.connect_fail"); got != 3 {
		t.Errorf("connect_fail counter = %d, want 3", got)
	}
	p2 := NewPlan(Config{Seed: 1}, nil, nil)
	if p2.Injector(0).FailConnect() {
		t.Error("ConnectFailProb=0 failed a connect")
	}
}

func TestWrapDropAndDup(t *testing.T) {
	reg := telemetry.NewRegistry()
	// Drop then dup then clean: probabilities 1 select deterministically.
	dropPlan := NewPlan(Config{Seed: 3, DropProb: 1}, reg, nil)
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	wa := dropPlan.Wrap(0, a)
	if n, err := wa.Write([]byte("gone\n")); err != nil || n != 5 {
		t.Fatalf("dropped write = (%d, %v), want (5, nil)", n, err)
	}
	// The peer must see nothing: a read with a deadline times out.
	b.SetReadDeadline(time.Now().Add(30 * time.Millisecond))
	buf := make([]byte, 16)
	if n, err := b.Read(buf); err == nil {
		t.Fatalf("peer read %q after a dropped write", buf[:n])
	}

	dupPlan := NewPlan(Config{Seed: 3, DupProb: 1}, reg, nil)
	c, d := net.Pipe()
	defer c.Close()
	defer d.Close()
	wc := dupPlan.Wrap(0, c)
	go wc.Write([]byte("twice\n"))
	br := bufio.NewReader(d)
	for i := 0; i < 2; i++ {
		line, err := br.ReadString('\n')
		if err != nil || line != "twice\n" {
			t.Fatalf("dup copy %d = (%q, %v)", i, line, err)
		}
	}
	snap := reg.Snapshot()
	if snap.Counter("fault.injected.drop") != 1 || snap.Counter("fault.injected.dup") != 1 {
		t.Errorf("drop/dup counters = %d/%d, want 1/1",
			snap.Counter("fault.injected.drop"), snap.Counter("fault.injected.dup"))
	}
}

func TestWrapResetOnWrite(t *testing.T) {
	reg := telemetry.NewRegistry()
	p := NewPlan(Config{Seed: 5, ResetProb: 1}, reg, nil)
	a, b := net.Pipe()
	defer b.Close()
	wa := p.Wrap(0, a)
	_, err := wa.Write([]byte("boom\n"))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("reset write err = %v, want ErrInjected", err)
	}
	// The underlying conn is closed: further writes fail natively.
	if _, err := a.Write([]byte("x")); err == nil {
		t.Error("underlying conn still open after injected reset")
	}
	if got := reg.Snapshot().Counter("fault.injected.reset"); got != 1 {
		t.Errorf("reset counter = %d, want 1", got)
	}
}

func TestWrapStallUsesClockAndDelivers(t *testing.T) {
	reg := telemetry.NewRegistry()
	clock := NewFakeClock(time.Unix(0, 0))
	p := NewPlan(Config{Seed: 9, StallProb: 1, Stall: 3 * time.Second}, reg, clock)
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	wa := p.Wrap(0, a)

	// Write stall: the fake clock absorbs the delay instantly.
	go wa.Write([]byte("slow\n"))
	line, err := echoLineRead(t, b)
	if err != nil || line != "slow\n" {
		t.Fatalf("stalled write delivered (%q, %v)", line, err)
	}
	// Read stall: one decision per inbound line.
	go b.Write([]byte("inbound\n"))
	line, err = echoLineRead(t, wa)
	if err != nil || line != "inbound\n" {
		t.Fatalf("stalled read delivered (%q, %v)", line, err)
	}
	if clock.Slept() != 6*time.Second {
		t.Errorf("clock slept %v, want 6s (two 3s stalls)", clock.Slept())
	}
	if got := reg.Snapshot().Counter("fault.injected.stall"); got != 2 {
		t.Errorf("stall counter = %d, want 2", got)
	}
}

func echoLineRead(t *testing.T, c net.Conn) (string, error) {
	t.Helper()
	return bufio.NewReader(c).ReadString('\n')
}

func TestReadChunksByLineOneDecisionPerMessage(t *testing.T) {
	reg := telemetry.NewRegistry()
	// StallProb 1 with zero duration: every delivered line must draw
	// exactly one decision, however TCP fragments it.
	p := NewPlan(Config{Seed: 11, StallProb: 1}, reg, nil)
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	wa := p.Wrap(0, a)
	go func() {
		// Two messages delivered in three fragments.
		b.Write([]byte(`{"x":`))
		b.Write([]byte("1}\n{\"x\":2}"))
		b.Write([]byte("\n"))
	}()
	br := bufio.NewReader(wa)
	for i, want := range []string{"{\"x\":1}\n", "{\"x\":2}\n"} {
		line, err := br.ReadString('\n')
		if err != nil || line != want {
			t.Fatalf("line %d = (%q, %v), want %q", i, line, err, want)
		}
	}
	if got := reg.Snapshot().Counter("fault.injected.stall"); got != 2 {
		t.Errorf("stall decisions = %d, want exactly 2 (one per message)", got)
	}
}

func TestCrashScheduleAndCounters(t *testing.T) {
	reg := telemetry.NewRegistry()
	p := NewPlan(Config{Seed: 1, Crashes: []Crash{
		{Agent: 1, Epoch: 4},
		{Agent: 3, Epoch: 4, Rejoin: true},
		{Agent: 2, Epoch: 9},
	}}, reg, nil)
	due := p.CrashesDue(4)
	if len(due) != 2 || due[0].Agent != 1 || due[1].Agent != 3 || !due[1].Rejoin {
		t.Errorf("CrashesDue(4) = %+v", due)
	}
	if got := p.CrashesDue(5); got != nil {
		t.Errorf("CrashesDue(5) = %+v, want none", got)
	}
	p.RecordCrash()
	p.RecordCrash()
	p.RecordRejoin()
	snap := reg.Snapshot()
	if snap.Counter("fault.injected.crash") != 2 || snap.Counter("fault.injected.rejoin") != 1 {
		t.Errorf("crash/rejoin counters = %d/%d, want 2/1",
			snap.Counter("fault.injected.crash"), snap.Counter("fault.injected.rejoin"))
	}
}

// TestNewPlanRejectsInvalidConfig: a malformed Config would silently
// skew the cumulative-threshold fault selection, so NewPlan treats it as
// a programmer error and panics via Validate.
func TestNewPlanRejectsInvalidConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewPlan accepted per-message probabilities summing past 1")
		}
	}()
	NewPlan(Config{Seed: 1, DropProb: 0.8, DupProb: 0.5}, nil, nil)
}

func TestNewPlanPreCreatesCounters(t *testing.T) {
	reg := telemetry.NewRegistry()
	NewPlan(Config{Seed: 1}, reg, nil)
	snap := reg.Snapshot()
	for _, name := range CounterNames() {
		if _, ok := snap.Counters[name]; !ok {
			t.Errorf("counter %q not pre-created", name)
		}
	}
}

func TestFakeClock(t *testing.T) {
	c := NewFakeClock(time.Unix(100, 0))
	c.Sleep(2 * time.Second)
	c.Sleep(-time.Second) // ignored
	c.Advance(3 * time.Second)
	if got := c.Now(); !got.Equal(time.Unix(105, 0)) {
		t.Errorf("Now = %v, want t0+5s", got)
	}
	if got := c.Slept(); got != 2*time.Second {
		t.Errorf("Slept = %v, want 2s", got)
	}
	if RealClock().Now().IsZero() {
		t.Error("real clock returned zero time")
	}
}

// TestInjectionEvents covers the injections the e2e soak can't count:
// drops are excluded from the cooperd soak plan (a dropped epoch summary
// would park its agent across the barrier), so the drop counter is
// asserted here, beside one executed crash and rejoin. Injections are
// counted only; the plan holds no flight recorder to write to.
func TestInjectionEvents(t *testing.T) {
	reg := telemetry.NewRegistry()
	p := NewPlan(Config{Seed: 3, DropProb: 1}, reg, nil)
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	if _, err := p.Wrap(7, a).Write([]byte("gone\n")); err != nil {
		t.Fatalf("dropped write: %v", err)
	}
	p.RecordCrash()
	p.RecordRejoin()

	snap := reg.Snapshot()
	for name, want := range map[string]int64{
		"fault.injected.drop":   1,
		"fault.injected.crash":  1,
		"fault.injected.rejoin": 1,
		"fault.injected.dup":    0,
	} {
		if got := snap.Counter(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}
