package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"cooper"
	"cooper/internal/arch"
	"cooper/internal/policy"
	"cooper/internal/profiler"
	"cooper/internal/recommend"
	"cooper/internal/workload"
)

// predict-complete: the `cooperd -profiles` start-up path at catalog
// scale. Set-up calibrates a seeded synthetic catalog, solves its analytic
// penalty matrix and masks it to 25% of the colocations. The measured
// operation is Predictor.Complete alone, alternating the exact kernel (the
// primary operation) and the LSH-bucketed approximate one (the secondary:
// the same layer used the other way round). Accuracy is computed after the
// window, outside every timed region.
type predictInst struct {
	cfg     *config
	tr      *tracer
	truth   [][]float64
	sparse  [][]float64
	kernels [2]recommend.Predictor // exact, approx
}

func setupPredict(cfg *config, tr *tracer) (instance, error) {
	in := &predictInst{cfg: cfg, tr: tr}
	machine := arch.DefaultCMP()
	rng := rand.New(rand.NewSource(cfg.seed))
	specs, err := syntheticSpecs(machine, cfg.sizes.CatalogJobs, rng)
	if err != nil {
		return nil, err
	}
	var catalog []workload.Job
	tr.timed(nil, "workload.BuildCatalog", "workload.build_catalog_ms", func() {
		catalog, err = workload.BuildCatalog(machine, specs)
	})
	if err != nil {
		return nil, err
	}
	tr.timed(nil, "profiler.DensePenalties", "profiler.dense_ms", func() {
		in.truth, err = profiler.DensePenaltiesContext(context.Background(), machine, catalog, 0, nil)
	})
	if err != nil {
		return nil, err
	}
	in.sparse = recommend.MaskPairs(in.truth, 0.25, rng)
	in.kernels[0] = recommend.Default()
	in.kernels[1] = recommend.Default()
	in.kernels[1].Approx = recommend.DefaultApprox()
	if tr != nil {
		replayPairSolve(tr, nil, machine, catalog)
		replayRecord(tr)
	}
	return in, nil
}

// syntheticSpecs lays n job specs on an even grid — every Table I job's
// model at evenly spaced fractions (0.5 to 1) of its bandwidth — and
// shuffles them by the seed. Scaling bandwidth down keeps every spec
// reachable on the machine, so no calibration can fail; the grid keeps the
// catalog's make-up, and with it mean_penalty, the same for every seed,
// which then decides only the job order and which colocations the mask
// reveals.
func syntheticSpecs(machine arch.CMP, n int, rng *rand.Rand) ([]workload.Spec, error) {
	base, err := workload.Catalog(machine)
	if err != nil {
		return nil, err
	}
	steps := (n + len(base) - 1) / len(base)
	specs := make([]workload.Spec, n)
	for i := range specs {
		b := base[i%len(base)]
		scale := 0.5 + 0.5*(float64(i/len(base))+0.5)/float64(steps)
		specs[i] = workload.Spec{
			Application:   b.Application,
			BandwidthGBps: b.BandwidthGBps * scale,
			RuntimeS:      b.RuntimeS,
			WorkingSetMB:  b.Model.WSBytes / (1 << 20),
			MissFloor:     b.Model.MissFloor,
			CPI0:          b.Model.CPI0,
			ThreadScale:   b.Model.ThreadScale,
		}
	}
	rng.Shuffle(n, func(a, b int) { specs[a], specs[b] = specs[b], specs[a] })
	for i := range specs {
		specs[i].Name = fmt.Sprintf("job-%04d", i)
	}
	return specs, nil
}

func (in *predictInst) close() error { return nil }

func (in *predictInst) measure(d time.Duration) (*measurement, error) {
	m := &measurement{}
	digest := newMatchDigest()
	var first [2][][]float64 // each kernel's first output; Complete is deterministic
	n := len(in.sparse)
	w := openWindow(d)
	for k := 0; w.open(); k++ {
		span := in.tr.epoch(k)
		for kernel, pred := range in.kernels {
			var out [][]float64
			var err error
			complete := func() error {
				if in.tr != nil {
					metric := "recommend.complete_ms_p50"
					if kernel == 1 {
						metric = "recommend.approx_complete_ms_p50"
					}
					out, err = replayComplete(in.tr, span, pred, in.sparse, metric)
				} else {
					out, _, err = pred.Complete(in.sparse)
				}
				return err
			}
			if kernel == 0 {
				_, err = m.timedOp(complete)
			} else {
				_, err = m.timedAlt(complete)
			}
			if err != nil {
				m.failf("complete %d (%s): %v", k, pred.KernelName(), err)
				continue
			}
			m.agents += float64(n)
			digest.addFloats(out)
			if first[kernel] == nil {
				first[kernel] = out
			} else if in.cfg.check && !sameMatrix(first[kernel], out) {
				m.failf("complete %d (%s): output differs from the first completion of the same input", k, pred.KernelName())
			}
		}
		span.Finish()
	}
	w.close(m)
	m.digest = digest.String()
	if first[0] == nil || first[1] == nil {
		return m, nil
	}

	// Quality, outside the timed region. mean_penalty is what the predicted
	// matrix is for: one agent per catalog job, colocated greedily on the
	// exact kernel's predictions, suffers this much by the truth.
	sp := in.tr.child("quality")
	penalty, err := matchedPenalty(in.truth, first[0])
	if err != nil {
		m.failf("matching on the predicted matrix: %v", err)
	}
	m.penalty.add(penalty)
	for kernel, want := range []struct {
		floor  float64
		metric string
	}{
		{in.cfg.sizes.ExactFloor, "recommend.pref_accuracy"},
		{in.cfg.sizes.ApproxFloor, "recommend.approx_pref_accuracy"},
	} {
		if !in.cfg.check && in.tr == nil {
			break
		}
		var acc float64
		var err error
		in.tr.timed(sp, "recommend.PreferenceAccuracy", "", func() {
			acc, err = recommend.PreferenceAccuracy(in.truth, first[kernel])
		})
		name := in.kernels[kernel].KernelName()
		switch {
		case err != nil:
			m.failf("accuracy (%s): %v", name, err)
		case acc < want.floor:
			m.failf("accuracy (%s) %.4f is below the floor %.2f", name, acc, want.floor)
		}
		in.tr.set(want.metric, acc)
	}
	if in.tr != nil {
		in.tr.set("recommend.topk_recall", recommend.TopKRecall(first[0], first[1], 10))
		in.tr.set("core.coverage", 1) // the operation is the layer call: nothing is left over
	}
	sp.Finish()
	return m, nil
}

func sameMatrix(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// matchedPenalty colocates one agent per job with the greedy policy on pred
// (deterministic, and quadratic where stable roommates on a tie-free matrix
// takes seconds) and returns the mean penalty the matching costs by truth.
func matchedPenalty(truth, pred [][]float64) (float64, error) {
	match, err := cooper.Greedy().Assign(pred, policy.Context{})
	if err != nil {
		return 0, err
	}
	if err := checkMatching(match, len(match)%2); err != nil {
		return 0, err
	}
	var sum float64
	for i, j := range match {
		if j != cooper.Unmatched {
			sum += truth[i][j]
		}
	}
	return sum / float64(len(match)), nil
}
