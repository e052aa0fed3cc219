package parallel

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		n := 257
		counts := make([]int32, n)
		err := ForEach(context.Background(), workers, n, func(i int) error {
			atomic.AddInt32(&counts[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForEachDeterministicWithSplitSeed(t *testing.T) {
	run := func(workers int) []float64 {
		out := make([]float64, 64)
		err := ForEach(context.Background(), workers, len(out), func(i int) error {
			r := rand.New(rand.NewSource(SplitSeed(42, int64(i))))
			out[i] = r.NormFloat64() + r.Float64()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial := run(1)
	for _, workers := range []int{2, 7, 32} {
		got := run(workers)
		for i := range serial {
			if got[i] != serial[i] {
				t.Fatalf("workers=%d: slot %d = %v, serial %v",
					workers, i, got[i], serial[i])
			}
		}
	}
}

// cancelWatch is a parent context that is never cancelled itself but
// sees its child cancelled: context.WithCancel registers through
// AfterFunc and calls the stop function it returns when the child is
// cancelled, which closes cancelled.
type cancelWatch struct {
	context.Context
	never     chan struct{}
	cancelled chan struct{}
	once      sync.Once
}

func newCancelWatch() *cancelWatch {
	return &cancelWatch{Context: context.Background(), never: make(chan struct{}), cancelled: make(chan struct{})}
}

// Done never closes but is not nil: a nil Done tells WithCancel there is
// nothing to register with.
func (c *cancelWatch) Done() <-chan struct{} { return c.never }

func (c *cancelWatch) AfterFunc(func()) func() bool {
	return func() bool {
		c.once.Do(func() { close(c.cancelled) })
		return true
	}
}

// TestForEachFirstErrorWins: item 3 fails and no later item runs. On the
// parallel leg items 0–2 hold their workers until the fan-out cancels,
// so the failure stops the fan-out before any worker is free to take
// item 4, whatever the scheduler does.
func TestForEachFirstErrorWins(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		parent := newCancelWatch()
		var late atomic.Int32
		err := ForEach(parent, workers, 1000, func(i int) error {
			switch {
			case i < 3 && workers > 1:
				select {
				case <-parent.cancelled:
				case <-time.After(10 * time.Second): // a fan-out that never cancels fails below, not by hanging
				}
			case i == 3:
				return fmt.Errorf("item %d: %w", i, boom)
			case i > 3:
				late.Add(1)
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want boom", workers, err)
		}
		if n := late.Load(); n != 0 {
			t.Errorf("workers=%d: %d items after the failing one ran: the error did not stop the fan-out", workers, n)
		}
	}
}

func TestForEachHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := ForEach(ctx, 4, 100, func(i int) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	// Cancel mid-flight: items block until released, cancellation frees
	// the fan-out without running all items.
	ctx, cancel = context.WithCancel(context.Background())
	release := make(chan struct{})
	var ran atomic.Int32
	done := make(chan error, 1)
	go func() {
		done <- ForEach(ctx, 2, 1000, func(i int) error {
			ran.Add(1)
			<-release
			return nil
		})
	}()
	cancel()
	close(release)
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran.Load() == 1000 {
		t.Error("cancellation did not stop the fan-out")
	}
}

func TestForEachBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int32
	err := ForEach(context.Background(), workers, 200, func(i int) error {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		time.Sleep(100 * time.Microsecond)
		cur.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Errorf("peak concurrency %d exceeds %d workers", p, workers)
	}
}

func TestWorkersResolution(t *testing.T) {
	if Workers(0) <= 0 || Workers(-3) <= 0 {
		t.Error("non-positive knobs must resolve to a positive budget")
	}
	if Workers(7) != 7 {
		t.Error("positive knobs pass through")
	}
}

func TestSplitSeedSpreads(t *testing.T) {
	seen := make(map[int64]bool)
	for i := int64(0); i < 1000; i++ {
		s := SplitSeed(1, i)
		if seen[s] {
			t.Fatalf("seed collision at item %d", i)
		}
		seen[s] = true
	}
	if SplitSeed(1, 0) == SplitSeed(2, 0) {
		t.Error("different base seeds should derive different children")
	}
}

func TestForEachWorkerIdentity(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		n := 100
		resolved := workers
		if resolved > n {
			resolved = n
		}
		var ran [100]int32
		seen := make([]atomic.Int32, resolved)
		err := ForEachWorker(context.Background(), workers, n, func(worker, i int) error {
			if worker < 0 || worker >= resolved {
				return fmt.Errorf("worker id %d out of range [0,%d)", worker, resolved)
			}
			atomic.AddInt32(&ran[i], 1)
			seen[worker].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, c := range ran {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
		var total int32
		for w := range seen {
			total += seen[w].Load()
		}
		if total != int32(n) {
			t.Fatalf("workers=%d: worker tallies sum to %d, want %d", workers, total, n)
		}
		if workers == 1 && seen[0].Load() != int32(n) {
			t.Fatal("serial path must run everything on worker 0")
		}
	}
}

func TestForEachWorkerScratchIsolation(t *testing.T) {
	// The motivating use: per-worker scratch buffers written by every
	// item without synchronization must be race-free because a worker id
	// is never shared between concurrent goroutines. Run with -race.
	workers := 4
	scratch := make([][]int, workers)
	for i := range scratch {
		scratch[i] = make([]int, 8)
	}
	out := make([]int, 200)
	err := ForEachWorker(context.Background(), workers, len(out), func(worker, i int) error {
		buf := scratch[worker]
		for j := range buf {
			buf[j] = i + j
		}
		out[i] = buf[3]
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i+3 {
			t.Fatalf("item %d read %d from scratch, want %d", i, v, i+3)
		}
	}
}

// TestForEachWorkerAllocatesPerWorkerNotPerItem pins the fan-out's own
// allocations to its set-up and its goroutines: a 10,000-item fan-out at
// two workers used to allocate once per item (the error slot escaped).
func TestForEachWorkerAllocatesPerWorkerNotPerItem(t *testing.T) {
	const items, workers = 10000, 2
	allocs := testing.AllocsPerRun(5, func() {
		err := ForEachWorker(context.Background(), workers, items, func(_, _ int) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 10*workers {
		t.Fatalf("%d-item fan-out at %d workers allocated %.0f times, want at most %d", items, workers, allocs, 10*workers)
	}
}
