// Package parallel provides the deterministic fan-out helpers the Cooper
// pipeline's hot paths share: the offline profiling campaign,
// penalty-matrix completion, true-penalty assessment, and the dense
// oracle computation all fan work units out across a fixed number of
// workers, which Workers resolves from the pipeline's knob.
//
// Determinism is the package's contract: a fan-out over n items invokes
// the item function exactly once per index, items write results only into
// their own slot, and any per-item randomness must be seeded from the item
// index (see SplitSeed) — never drawn from a shared stream — so results
// are bit-identical whatever the worker count or goroutine interleaving.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker-count knob: values <= 0 mean GOMAXPROCS, the
// number of OS threads Go will actually run concurrently.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// ForEach runs fn(i) for every i in [0, n) across at most workers
// concurrent goroutines (workers <= 0 means GOMAXPROCS) and blocks until
// all items finish or one fails. The first error cancels the remaining
// items and is returned; a canceled ctx stops the fan-out and returns
// ctx.Err() (wrapped). With workers == 1 the items run serially, in
// order, on the calling goroutine.
func ForEach(ctx context.Context, workers, n int, fn func(i int) error) error {
	return ForEachWorker(ctx, workers, n, func(_, i int) error { return fn(i) })
}

// ForEachWorker is ForEach with a worker identity: fn receives the index
// of the goroutine running the item (0 <= worker < min(workers, n), with
// worker 0 on the serial path). Fan-out sites use the identity to give
// each worker a private scratch buffer, making inner loops allocation-
// free; results must never depend on which worker ran an item, so the
// determinism contract is unchanged.
func ForEachWorker(ctx context.Context, workers, n int, fn func(worker, i int) error) error {
	if n <= 0 {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("parallel: %w", err)
		}
		return nil
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("parallel: %w", err)
			}
			if err := fn(0, i); err != nil {
				return err
			}
		}
		return nil
	}

	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next     atomic.Int64
		firstErr atomic.Pointer[error]
		wg       sync.WaitGroup
	)
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if err := fn(worker, i); err != nil {
					// Address a copy: taking &err would move the loop's
					// err to the heap on every item, not only on failure.
					failed := err
					firstErr.CompareAndSwap(nil, &failed)
					cancel()
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if p := firstErr.Load(); p != nil {
		return *p
	}
	if err := parent.Err(); err != nil {
		return fmt.Errorf("parallel: %w", err)
	}
	return nil
}

// SplitSeed derives a child seed for work item i from a base seed using a
// SplitMix64-style finalizer. Fan-out sites that need randomness seed one
// RNG per item with SplitSeed(base, i) instead of sharing a stream, which
// is what keeps parallel results bit-identical to serial ones.
func SplitSeed(base int64, i int64) int64 {
	z := uint64(base) + uint64(i+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}
