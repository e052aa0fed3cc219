package recommend

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"cooper/internal/telemetry"
)

// maskedGrid builds the pair-sampled input shape: a dense 16-level
// penalty grid with a symmetric MaskPairs pass keeping the given
// fraction of colocation pairs observed — the paper's sampling unit.
func maskedGrid(n int, frac float64, seed int64) [][]float64 {
	r := rand.New(rand.NewSource(seed))
	dense := make([][]float64, n)
	for i := range dense {
		dense[i] = make([]float64, n)
		for j := range dense[i] {
			dense[i][j] = -0.05 + 0.05*float64(r.Intn(16))
		}
	}
	return MaskPairs(dense, frac, r)
}

// TestApproxTopKRecallGate is the bounded equivalence contract of the
// approximate path: at n=400, across the matrix-shape sweep, the
// approximate kernel must recover at least 95% of the exact
// kernel's per-row top-10 lowest-penalty neighbors, and its own output
// must be byte-identical at Workers 1 vs 8 (run under -race to also
// prove the candidate build safe).
//
// The sweep covers the regime the approximation is specified for:
// symmetric pair sampling at the paper's 25% measurement fraction and at
// 50%, plus element-wise sparsity at 50%.
// It deliberately excludes element-wise density below ~0.25 at this n:
// there the exact similarity is an intersection-normalized statistic
// over ~density²·n ≈ tens of shared entries, and no fixed-width sketch
// of the whole column can track that small-sample value — recall decays
// because the exact numbers themselves are noise at that support, not
// because the buckets miss structure (see DESIGN.md, "Approximate
// prediction"). The same geometries score recall 1.0 at n=2000.
func TestApproxTopKRecallGate(t *testing.T) {
	const n, topK, floor = 400, 10, 0.95
	generators := []struct {
		name string
		gen  func(seed int64) [][]float64
	}{
		{"pairs25", func(seed int64) [][]float64 { return maskedGrid(n, 0.25, seed) }},
		{"pairs50", func(seed int64) [][]float64 { return maskedGrid(n, 0.5, seed) }},
		{"sparse50", func(seed int64) [][]float64 { return randSparse(n, 0.5, seed) }},
	}
	seed := int64(4000)
	for _, g := range generators {
		seed++
		label := g.name
		m := g.gen(seed)
		p := Predictor{MaxIters: 3, Workers: 8}
		exact, _, err := p.Complete(m)
		if err != nil {
			t.Fatalf("%s: exact: %v", label, err)
		}
		pa := p
		pa.Approx = DefaultApprox()
		approx8, _, err := pa.Complete(m)
		if err != nil {
			t.Fatalf("%s: approx workers=8: %v", label, err)
		}
		pa.Workers = 1
		approx1, _, err := pa.Complete(m)
		if err != nil {
			t.Fatalf("%s: approx workers=1: %v", label, err)
		}
		mustEqualBits(t, label+" approx workers 1 vs 8", approx1, approx8)
		if recall := TopKRecall(exact, approx8, topK); recall < floor {
			t.Errorf("%s: top-%d recall %.4f < %.2f", label, topK, recall, floor)
		}
	}
}

// TestApproxSameSeedRuns pins run-to-run determinism: two Complete calls
// with the same Approx.Seed produce byte-identical matrices (bucket maps
// iterate in random order, so this fails if candidate marking ever stops
// being commutative), and a different seed — a different candidate
// structure — is allowed to differ.
func TestApproxSameSeedRuns(t *testing.T) {
	m := randSparse(120, 0.2, 77)
	p := Default()
	p.Approx = Approx{Bits: DefaultApproxBits, Bands: DefaultApproxBands, Seed: 42}
	a, itersA, err := p.Complete(m)
	if err != nil {
		t.Fatal(err)
	}
	b, itersB, err := p.Complete(m)
	if err != nil {
		t.Fatal(err)
	}
	if itersA != itersB {
		t.Fatalf("same-seed runs used %d vs %d iters", itersA, itersB)
	}
	mustEqualBits(t, "same-seed runs", a, b)
}

// TestApproxWorkerIndependence fans the approximate kernel out at
// several worker counts and requires byte-identical output — the
// SplitSeed-per-hyperplane projection and disjoint-slot signature writes
// must make the candidate structure independent of the fan-out.
func TestApproxWorkerIndependence(t *testing.T) {
	m := randSparse(90, 0.25, 900)
	p := Default()
	p.Approx = DefaultApprox()
	p.Workers = 1
	serial, iters1, err := p.Complete(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		pw := p
		pw.Workers = workers
		got, iters, err := pw.Complete(m)
		if err != nil {
			t.Fatal(err)
		}
		if iters != iters1 {
			t.Fatalf("workers=%d: %d iters vs serial %d", workers, iters, iters1)
		}
		mustEqualBits(t, fmt.Sprintf("workers=%d", workers), got, serial)
	}
}

// TestApproxFewerJobsThanWorkers completes matrices smaller than the
// worker count: the hyperplane fan-out runs over signature bits, not
// columns, so its worker ids exceed the kernel's per-column scratch count
// and anything indexed by them must be sized to that fan-out. The paper's
// 20-job catalog on a many-core host is this shape.
func TestApproxFewerJobsThanWorkers(t *testing.T) {
	for _, n := range []int{1, 3, 5, 20} {
		m := randSparse(n, 0.6, int64(40+n))
		p := Default()
		p.Approx = DefaultApprox()
		p.Workers = 1
		serial, iters1, err1 := p.Complete(m)
		for _, workers := range []int{8, 64} {
			p.Workers = workers
			got, iters, err := p.Complete(m)
			if (err != nil) != (err1 != nil) {
				t.Fatalf("n=%d workers=%d: err %v vs serial %v", n, workers, err, err1)
			}
			if err != nil {
				continue
			}
			if iters != iters1 {
				t.Fatalf("n=%d workers=%d: %d iters vs serial %d", n, workers, iters, iters1)
			}
			mustEqualBits(t, fmt.Sprintf("n=%d workers=%d", n, workers), got, serial)
		}
	}
}

// TestApproxZeroValueIsExact pins the zero-value contract: a Predictor
// whose Approx has Bits == 0 — even with stray Bands or Seed values —
// routes through the exact flat kernel and reproduces the reference
// kernel bit for bit.
func TestApproxZeroValueIsExact(t *testing.T) {
	m := randSparse(60, 0.3, 13)
	for _, approx := range []Approx{{}, {Bands: 16}, {Seed: 99}, {Bands: 7, Seed: -1}} {
		p := Default()
		p.Approx = approx
		if p.KernelName() != "flat" {
			t.Fatalf("Approx %+v: kernel %q, want flat", approx, p.KernelName())
		}
		got, _, err := p.Complete(m)
		if err != nil {
			t.Fatal(err)
		}
		ref, _, err := p.WithReferenceKernel().Complete(m)
		if err != nil {
			t.Fatal(err)
		}
		mustEqualBits(t, fmt.Sprintf("Approx %+v vs reference", approx), got, ref)
	}
}

// TestApproxValidate rejects geometries the uint64 band packing cannot
// represent, before any work happens.
func TestApproxValidate(t *testing.T) {
	m := randSparse(8, 0.5, 3)
	for _, a := range []Approx{
		{Bits: 10, Bands: 3},  // 10 % 3 != 0
		{Bits: 128, Bands: 1}, // 128-bit band exceeds uint64
		{Bits: 4, Bands: 8},   // more bands than bits
		{Bits: 256},           // valid: Bands 0 means 8-bit bands
	} {
		p := Default()
		p.Approx = a
		_, _, err := p.Complete(m)
		if a.validate() == nil {
			if err != nil {
				t.Errorf("Approx %+v: unexpected error %v", a, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("Approx %+v accepted, want geometry error", a)
		}
	}
}

// TestApproxCandidateCounters checks the telemetry bookkeeping: scored
// and skipped candidates partition the n(n-1)/2 pairs exactly, some
// pairs are actually masked, and the kernel name advertises the
// geometry.
func TestApproxCandidateCounters(t *testing.T) {
	reg := telemetry.NewRegistry()
	p := Default()
	p.Approx = DefaultApprox()
	p.Metrics = reg
	n := 200
	m := randSparse(n, 0.15, 21)
	_, iters, err := p.Complete(m)
	if err != nil {
		t.Fatal(err)
	}
	if iters < 1 {
		t.Fatal("expected at least one fill iteration")
	}
	pairs := int64(n) * int64(n-1) / 2
	scored := reg.Counter("predict.candidates_scored").Value()
	skipped := reg.Counter("predict.candidates_skipped").Value()
	if scored+skipped != pairs*int64(iters) {
		t.Errorf("scored %d + skipped %d != %d pairs x %d iters", scored, skipped, pairs, iters)
	}
	if scored == 0 {
		t.Error("no candidate pairs scored at all")
	}
	if skipped == 0 {
		t.Error("no pairs masked: the approximate path dropped no votes")
	}
	if got, want := p.KernelName(), fmt.Sprintf("approx(bits=%d,bands=%d)", DefaultApproxBits, DefaultApproxBands); got != want {
		t.Errorf("KernelName() = %q, want %q", got, want)
	}
}

// TestApproxOutputGolden pins the approximate kernel's output and its
// candidate bookkeeping to what the kernel produced before its buckets
// became a counting sort and its fill tail was fused: the SHA-256 of the
// completed matrix's bits, the candidate counters and bucket_collisions
// (pairs a later band found already marked — independent of the order
// within a bucket). The first input is TestApproxSameSeedRuns'. The
// second is TestFlatKernelMatchesReferenceEdges' n=130, 5%-known
// non-finite leg: it fills in three iterations, its rows with infinite
// known values take the fill's per-cell path, and those values poison
// the signatures so that every pair is a candidate. The third is
// TestFlatKernelMatchesReferenceTiles' n=129, 5%-known leg, where one
// row takes the per-cell path under a mask that drops three pairs in
// four. The test also bounds the first input's allocations, which the
// per-band map buckets used to put near 25,000 at n=600.
func TestApproxOutputGolden(t *testing.T) {
	nonFinite := []float64{math.Inf(1), math.Inf(-1), -0.3, 1e308, -1e308}
	for _, c := range []struct {
		name     string
		m        [][]float64
		workers  []int
		iters    int
		digest   string
		counters map[string]int64
	}{
		{"randSparse(120)", randSparse(120, 0.2, 77), []int{1}, 2,
			"ea1797fcc6a0978d5cdf99200dcf3061751cd94f6f2196d6ed641a5fa4cb6b45",
			map[string]int64{
				"predict.bucket_collisions":  419,
				"predict.candidates_scored":  2581,
				"predict.candidates_skipped": 11699,
			}},
		{"edgeMatrix(130) non-finite", edgeMatrix(130, 0.05, 509, nonFinite), []int{1, 3}, 3,
			"7ccc1ca3e8bc70197371d7ac31b51ef9a7e0441fea1d0f5e6563550ad1f50fd5",
			map[string]int64{
				"predict.bucket_collisions":  1164096,
				"predict.candidates_scored":  25155,
				"predict.candidates_skipped": 0,
			}},
		{"tileMatrix(129)", tileMatrix(2*simTile+1, 0.05, 909), []int{1, 3}, 3,
			"b237588f590233b1670924f09d5120e230a463dcba671f2fe9b859a21a6afaf3",
			map[string]int64{
				"predict.bucket_collisions":  64947,
				"predict.candidates_scored":  6207,
				"predict.candidates_skipped": 18561,
			}},
	} {
		for _, workers := range c.workers {
			reg := telemetry.NewRegistry()
			p := Default()
			p.Workers = workers
			p.Approx = Approx{Bits: DefaultApproxBits, Bands: DefaultApproxBands, Seed: 42}
			p.Metrics = reg
			out, iters, err := p.Complete(c.m)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			for _, row := range out {
				for _, v := range row {
					h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
				}
			}
			label := fmt.Sprintf("%s workers=%d", c.name, workers)
			if iters != c.iters {
				t.Errorf("%s: %d iterations, want %d", label, iters, c.iters)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != c.digest {
				t.Errorf("%s: output digest %s, want %s", label, got, c.digest)
			}
			for name, want := range c.counters {
				if got := reg.Counter(name).Value(); got != want {
					t.Errorf("%s: %s = %d, want %d", label, name, got, want)
				}
			}
		}
	}
	m := randSparse(120, 0.2, 77)
	p := Default()
	p.Workers = 1
	p.Approx = Approx{Bits: DefaultApproxBits, Bands: DefaultApproxBands, Seed: 42}
	if allocs := testing.AllocsPerRun(3, func() { p.Complete(m) }); allocs >= 200 {
		t.Errorf("approximate Complete made %.0f allocations, want < 200", allocs)
	}
}

// TestMaxItersZeroValue is the regression test for the zero-value
// MaxIters contract: zero (and negative) mean the paper's 3 iterations,
// resolved in the single maxIters() helper both kernels share — a zero
// Predictor iterates rather than degenerating into a pure fallback fill.
func TestMaxItersZeroValue(t *testing.T) {
	m := randSparse(40, 0.15, 5)
	want := Predictor{MaxIters: 3}
	for _, maxIters := range []int{0, -1} {
		p := Predictor{MaxIters: maxIters}
		if got := p.maxIters(); got != 3 {
			t.Fatalf("maxIters(%d) = %d, want 3", maxIters, got)
		}
		for name, pair := range map[string][2]Predictor{
			"flat":      {p, want},
			"reference": {p.WithReferenceKernel(), want.WithReferenceKernel()},
		} {
			got, iters, err := pair[0].Complete(m)
			if err != nil {
				t.Fatal(err)
			}
			ref, refIters, err := pair[1].Complete(m)
			if err != nil {
				t.Fatal(err)
			}
			if iters != refIters {
				t.Fatalf("%s MaxIters=%d: %d iters vs %d for MaxIters=3", name, maxIters, iters, refIters)
			}
			if iters < 1 {
				t.Fatalf("%s MaxIters=%d: did not iterate at all", name, maxIters)
			}
			mustEqualBits(t, fmt.Sprintf("%s MaxIters=%d vs 3", name, maxIters), got, ref)
		}
	}
	// The explicit bound still binds: one iteration is genuinely fewer.
	p1 := Predictor{MaxIters: 1}
	if got := p1.maxIters(); got != 1 {
		t.Fatalf("maxIters(1) = %d, want 1", got)
	}
	if _, iters, err := p1.Complete(m); err != nil || iters > 1 {
		t.Fatalf("MaxIters=1 ran %d iters (err %v)", iters, err)
	}
}

// sanity guard for the helpers above.
func TestTopKRecallHelpers(t *testing.T) {
	exact := [][]float64{{0, 1, 2, 3}, {4, 0, 1, 2}}
	if r := TopKRecall(exact, exact, 2); r != 1 {
		t.Fatalf("self recall = %v, want 1", r)
	}
	other := [][]float64{{0, 3, 2, 1}, {4, 0, 1, 2}}
	if r := TopKRecall(exact, other, 2); math.Abs(r-0.75) > 1e-12 {
		t.Fatalf("recall = %v, want 0.75", r)
	}
}
