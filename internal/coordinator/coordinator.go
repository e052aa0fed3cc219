// Package coordinator drives Cooper across scheduling epochs: jobs arrive
// continuously, the coordinator batches them, and each period it plays
// one round of the colocation game for the batch (paper §III-A: the game
// "batches and assigns arriving jobs to available processors
// periodically", with a period comparable to job completion times; under
// heavy load, jobs queue for scheduling).
package coordinator

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"cooper/internal/core"
	"cooper/internal/stats"
	"cooper/internal/telemetry"
	"cooper/internal/workload"
)

// Arrival is one job arriving at a point in virtual time.
type Arrival struct {
	TimeS float64
	Job   workload.Job
}

// PoissonArrivals generates arrivals over [0, durationS) with exponential
// inter-arrival times at the given rate (jobs/second), sampling jobs from
// the catalog under the mix density.
func PoissonArrivals(rate, durationS float64, catalog []workload.Job, mix stats.Sampler, r *rand.Rand) ([]Arrival, error) {
	if rate <= 0 || durationS <= 0 {
		return nil, fmt.Errorf("coordinator: rate and duration must be positive")
	}
	if len(catalog) == 0 {
		return nil, fmt.Errorf("coordinator: empty catalog")
	}
	ordered := workload.ByIntensity(catalog)
	var arrivals []Arrival
	t := 0.0
	for {
		t += r.ExpFloat64() / rate
		if t >= durationS {
			break
		}
		u := mix.Sample(r)
		idx := int(u * float64(len(ordered)))
		if idx >= len(ordered) {
			idx = len(ordered) - 1
		}
		arrivals = append(arrivals, Arrival{TimeS: t, Job: ordered[idx]})
	}
	return arrivals, nil
}

// Epoch records one scheduling round of the driver.
type Epoch struct {
	// StartS is the virtual time the epoch was scheduled.
	StartS float64
	// Report is the framework's outcome for the batch.
	Report *core.EpochReport
	// QueuedAfter is how many jobs remained waiting after the batch was
	// taken.
	QueuedAfter int
	// MeanWaitS is the batch's mean queueing delay (arrival to epoch
	// start).
	MeanWaitS float64
}

// Driver batches arrivals into epochs.
type Driver struct {
	// Framework plays the colocation game each epoch.
	Framework *core.Framework
	// PeriodS is the scheduling period in virtual seconds.
	PeriodS float64
	// MaxBatch caps agents per epoch (0 = unbounded). The paper sizes
	// batches to the cluster: 2N agents for N processors, dispatching in
	// waves when oversubscribed.
	MaxBatch int
}

// Run processes all arrivals, invoking one epoch per period boundary at
// which jobs are pending, and returns the epochs plus a summary.
func (d *Driver) Run(arrivals []Arrival) ([]Epoch, Summary, error) {
	return d.RunContext(context.Background(), arrivals)
}

// RunContext is Run with cancellation: the driver checks ctx before each
// epoch and the framework checks it between pipeline phases, so a fired
// context stops the run within one phase. The epochs completed before
// cancellation are returned alongside the error (which wraps
// core.ErrCanceled).
func (d *Driver) RunContext(ctx context.Context, arrivals []Arrival) ([]Epoch, Summary, error) {
	if d.Framework == nil {
		return nil, Summary{}, fmt.Errorf("coordinator: driver needs a framework")
	}
	if d.PeriodS <= 0 {
		return nil, Summary{}, fmt.Errorf("coordinator: period must be positive")
	}
	sorted := append([]Arrival(nil), arrivals...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].TimeS < sorted[b].TimeS })

	var epochs []Epoch
	var pending []Arrival
	next := 0
	horizon := 0.0
	if n := len(sorted); n > 0 {
		horizon = sorted[n-1].TimeS
	}
	for t := d.PeriodS; ; t += d.PeriodS {
		for next < len(sorted) && sorted[next].TimeS <= t {
			pending = append(pending, sorted[next])
			next++
		}
		if len(pending) > 0 {
			batch := pending
			if d.MaxBatch > 0 && len(batch) > d.MaxBatch {
				batch = pending[:d.MaxBatch]
			}
			pop := workload.Population{Jobs: make([]workload.Job, len(batch)), Mix: "arrivals"}
			var wait float64
			for i, a := range batch {
				pop.Jobs[i] = a.Job
				wait += t - a.TimeS
			}
			rep, err := d.Framework.RunEpochContext(ctx, pop)
			if err != nil {
				return epochs, summarize(epochs), err
			}
			pending = pending[len(batch):]
			ep := Epoch{
				StartS:      t,
				Report:      rep,
				QueuedAfter: len(pending),
				MeanWaitS:   wait / float64(len(batch)),
			}
			epochs = append(epochs, ep)
			tel := d.Framework.Telemetry()
			if reg := tel.Registry(); reg != nil {
				reg.Counter("driver.epochs").Inc()
				reg.Counter("driver.jobs").Add(int64(len(batch)))
				reg.Gauge("driver.queue_depth").Set(float64(ep.QueuedAfter))
				reg.Histogram("driver.wait_s", telemetry.DurationBuckets()).
					Observe(ep.MeanWaitS)
			}
			tel.RecordIn(nil, telemetry.Event{
				Type: telemetry.EventBatchScheduled, Epoch: len(epochs) - 1,
				Agent: -1, Partner: -1,
				Queued: ep.QueuedAfter, Value: ep.MeanWaitS,
			})
		}
		if next >= len(sorted) && len(pending) == 0 && t >= horizon {
			break
		}
		// Safety: a driver with no arrivals must still terminate.
		if len(sorted) == 0 {
			break
		}
	}
	return epochs, summarize(epochs), nil
}

// Summary aggregates a driver run.
type Summary struct {
	Epochs      int
	Jobs        int
	MeanPenalty float64
	MeanWaitS   float64
	MaxQueued   int
}

func summarize(epochs []Epoch) Summary {
	s := Summary{Epochs: len(epochs)}
	var penaltySum, waitSum float64
	for _, e := range epochs {
		n := len(e.Report.Population.Jobs)
		s.Jobs += n
		penaltySum += e.Report.MeanTruePenalty() * float64(n)
		waitSum += e.MeanWaitS * float64(n)
		if e.QueuedAfter > s.MaxQueued {
			s.MaxQueued = e.QueuedAfter
		}
	}
	if s.Jobs > 0 {
		s.MeanPenalty = penaltySum / float64(s.Jobs)
		s.MeanWaitS = waitSum / float64(s.Jobs)
	}
	if math.IsNaN(s.MeanPenalty) {
		s.MeanPenalty = 0
	}
	return s
}
