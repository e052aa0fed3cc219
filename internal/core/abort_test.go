package core

import (
	"context"
	"errors"
	"sync"
	"testing"

	"cooper/internal/audit"
	"cooper/internal/matching"
	"cooper/internal/policy"
	"cooper/internal/stats"
	"cooper/internal/telemetry"
)

// cancelInAssign is Greedy, except that its first AssignClasses cancels the
// epoch's context on the way: the matching succeeds, and the pipeline
// finds its context dead at the next phase boundary — after epoch_start
// and the snapshot are already in the log.
type cancelInAssign struct {
	policy.Greedy
	cancel context.CancelFunc
	once   sync.Once
}

func (p *cancelInAssign) AssignClasses(pen matching.Penalties, c policy.Context) (matching.Matching, error) {
	p.once.Do(p.cancel)
	return p.Greedy.AssignClasses(pen, c)
}

// TestAbortedEpochClosesItsBracket is the regression for epochs that
// error or are canceled after epoch_start: they used to return leaving
// the epoch span unfinished and the flight log unbracketed, so the next
// epoch's epoch_start tripped the auditor ("epoch 1 starts while epoch 0
// is still open"). Covers the batch and the streaming entry point,
// unsharded and sharded.
func TestAbortedEpochClosesItsBracket(t *testing.T) {
	for _, tc := range []struct {
		name   string
		stream bool
		shards int
	}{{"batch", false, 1}, {"batch-sharded", false, 4}, {"stream", true, 1}, {"stream-sharded", true, 4}} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			tel := telemetry.New()
			f, err := NewFramework(context.Background(), Config{
				Seed:     3,
				Market:   MarketConfig{Policy: &cancelInAssign{cancel: cancel}, Rematch: tc.stream, Shards: tc.shards},
				Pipeline: PipelineConfig{Oracle: true},
				Observe:  ObserveConfig{Telemetry: tel},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			pop := f.SamplePopulation(24, stats.Uniform{})
			epoch := func(ctx context.Context, join bool) error {
				if !tc.stream {
					_, err := f.RunEpochContext(ctx, pop)
					return err
				}
				churn := Churn{}
				if join {
					churn.Join = pop.Jobs
				}
				_, err := f.StreamEpochContext(ctx, churn)
				return err
			}
			if err := epoch(ctx, true); !errors.Is(err, ErrCanceled) {
				t.Fatalf("epoch canceled inside Assign = %v, want ErrCanceled", err)
			}
			// The aborted streaming epoch's joiners are already in the
			// ledger (matched or not, depending on where the cancellation
			// landed), so the next epoch admits nobody new.
			if err := epoch(context.Background(), false); err != nil {
				t.Fatalf("epoch after the aborted one: %v", err)
			}

			events := tel.EventRing().Events()
			var ends []telemetry.Event
			for _, e := range events {
				if e.Type == telemetry.EventEpochEnd {
					ends = append(ends, e)
				}
			}
			if len(ends) != 2 || ends[0].Kind != telemetry.KindAborted || ends[0].Epoch != 0 ||
				ends[1].Kind != "" || ends[1].Epoch != 1 {
				t.Fatalf("epoch_end events = %+v, want an aborted epoch 0 and a completed epoch 1", ends)
			}
			rep := audit.Replay(events, audit.Options{})
			for _, v := range rep.Violations {
				t.Errorf("%s: %s", v.Invariant, v.Detail)
			}
			if rep.Epochs != 2 {
				t.Errorf("audited %d epochs, want 2", rep.Epochs)
			}
			// Both epoch spans finished: End observes phase.epoch_s once each.
			if got := tel.Snapshot().Histogram("phase.epoch_s").Count; got != 2 {
				t.Errorf("%d finished epoch spans, want 2", got)
			}
		})
	}
}
