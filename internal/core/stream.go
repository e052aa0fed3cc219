package core

import (
	"context"
	"fmt"

	"cooper/internal/market"
	"cooper/internal/workload"
)

// Churn is one streaming epoch's population change: jobs arriving and
// agent IDs leaving. IDs are the stable identities EpochReport.AgentIDs
// carries — they survive across epochs as positions shift.
type Churn struct {
	// Join lists arriving jobs; each must name a catalog job.
	Join []workload.Job
	// Depart lists the stable IDs of agents leaving the market.
	Depart []int
}

// RematchSummary describes how a streaming epoch absorbed its churn.
type RematchSummary struct {
	// Mode is "repair" (incremental neighborhood repair) or "full"
	// (churn since the last full clear exceeded the threshold and the
	// market re-matched from scratch).
	Mode string
	// Joined and Departed count the epoch's churn.
	Joined   int
	Departed int
	// Neighborhood is how many agents' proposals were re-run (zero in
	// full mode), Changed how many ended with a different partner than
	// the prior epoch.
	Neighborhood int
	Changed      int
}

// StreamEpoch plays one round of the streaming market: the churn's
// departures and arrivals are folded into the live population, and the
// prior epoch's stable matching is repaired incrementally around them —
// or re-matched from scratch when cumulative churn since the last full
// clear exceeds Market.ChurnThreshold. Requires Market.Rematch (the
// facade's WithRematch). The report's Population.Jobs views the live
// roster and is valid until the next StreamEpoch; its AgentIDs, Match
// and penalties are its own, and Recommendations builds a fresh slice.
func (f *Framework) StreamEpoch(churn Churn) (*EpochReport, error) {
	return f.StreamEpochContext(context.Background(), churn)
}

// StreamEpochContext is StreamEpoch with cancellation. Unlike RunEpoch,
// consecutive calls share ledger state (the live population and its
// last matching); like every epoch, calls are serialized internally.
func (f *Framework) StreamEpochContext(ctx context.Context, churn Churn) (*EpochReport, error) {
	if !f.cfg.Market.Rematch {
		return nil, fmt.Errorf("core: streaming market disabled; enable Market.Rematch (cooper.WithRematch)")
	}
	var r *market.Round
	rep, err := f.epoch(ctx, workload.Population{}, func(ctx context.Context, ep *market.Epoch) (*market.Round, error) {
		// The ledger issues the joiners' stable IDs; the report's
		// AgentIDs carry them back for later departures.
		var err error
		r, err = ep.Step(ctx, market.Roster{Jobs: churn.Join}, churn.Depart)
		return r, err
	})
	if err != nil {
		return nil, err
	}
	rep.Rematch = &RematchSummary{Mode: r.Mode, Joined: r.Joined, Departed: r.Departed,
		Neighborhood: len(r.Neighborhood), Changed: len(r.Changed)}
	return rep, nil
}
