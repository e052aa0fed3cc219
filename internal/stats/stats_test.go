package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps
}

func TestMean(t *testing.T) {
	tests := []struct {
		name string
		in   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{4}, 4},
		{"pair", []float64{2, 4}, 3},
		{"negatives", []float64{-1, 1, -3, 3}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Mean(tt.in); got != tt.want {
				t.Errorf("Mean(%v) = %v, want %v", tt.in, got, tt.want)
			}
		})
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almostEqual(got, 4, 1e-12) {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); !almostEqual(got, 2, 1e-12) {
		t.Errorf("StdDev = %v, want 2", got)
	}
	if got := Variance([]float64{3}); got != 0 {
		t.Errorf("Variance of singleton = %v, want 0", got)
	}
}

func TestMinMaxSum(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	if got := Max(xs); got != 7 {
		t.Errorf("Max = %v", got)
	}
	if !math.IsInf(Max(nil), -1) {
		t.Error("Max of empty should be -Inf")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	tests := []struct {
		q, want float64
	}{
		{0, 1},
		{1, 4},
		{0.5, 2.5},
		{0.25, 1.75},
		{0.75, 3.25},
	}
	for _, tt := range tests {
		if got := Quantile(xs, tt.q); !almostEqual(got, tt.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
	if got := Quantile([]float64{42}, 0.9); got != 42 {
		t.Errorf("Quantile of singleton = %v", got)
	}
}

func TestQuantilePanics(t *testing.T) {
	for _, fn := range []func(){
		func() { Quantile(nil, 0.5) },
		func() { Quantile([]float64{1}, -0.1) },
		func() { Quantile([]float64{1}, 1.1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestQuantileDoesNotMutateInput(t *testing.T) {
	xs := []float64{5, 1, 3}
	Quantile(xs, 0.5)
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestBoxplot(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 100}
	b := NewBoxplot(xs)
	if b.N != 6 {
		t.Errorf("N = %d", b.N)
	}
	if len(b.Outliers) != 1 || b.Outliers[0] != 100 {
		t.Errorf("Outliers = %v, want [100]", b.Outliers)
	}
	if b.Max != 5 {
		t.Errorf("whisker Max = %v, want 5", b.Max)
	}
	if b.Min != 1 {
		t.Errorf("whisker Min = %v, want 1", b.Min)
	}
	if !(b.Q1 <= b.Median && b.Median <= b.Q3) {
		t.Errorf("quartiles out of order: %+v", b)
	}
}

func TestBoxplotWiderWhiskerAbsorbsOutlier(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 9}
	narrow := NewBoxplotWhisker(xs, 0.5)
	wide := NewBoxplotWhisker(xs, 3)
	if len(narrow.Outliers) == 0 {
		t.Error("narrow whisker should flag outliers")
	}
	if len(wide.Outliers) != 0 {
		t.Errorf("wide whisker flagged %v", wide.Outliers)
	}
}

func TestRanks(t *testing.T) {
	tests := []struct {
		name string
		in   []float64
		want []float64
	}{
		{"distinct", []float64{30, 10, 20}, []float64{3, 1, 2}},
		{"ties", []float64{1, 2, 2, 3}, []float64{1, 2.5, 2.5, 4}},
		{"allEqual", []float64{7, 7, 7}, []float64{2, 2, 2}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := Ranks(tt.in)
			for i := range got {
				if got[i] != tt.want[i] {
					t.Fatalf("Ranks(%v) = %v, want %v", tt.in, got, tt.want)
				}
			}
		})
	}
}

func TestPearson(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if got := Pearson(xs, ys); !almostEqual(got, 1, 1e-12) {
		t.Errorf("perfect positive = %v", got)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if got := Pearson(xs, neg); !almostEqual(got, -1, 1e-12) {
		t.Errorf("perfect negative = %v", got)
	}
	flat := []float64{3, 3, 3, 3, 3}
	if got := Pearson(xs, flat); got != 0 {
		t.Errorf("zero variance = %v", got)
	}
	if got := Pearson(xs, xs[:3]); got != 0 {
		t.Errorf("length mismatch = %v", got)
	}
}

func TestSpearmanMonotone(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{1, 4, 9, 16, 25} // monotone but nonlinear
	if got := Spearman(xs, ys); !almostEqual(got, 1, 1e-12) {
		t.Errorf("monotone Spearman = %v, want 1", got)
	}
}

func TestCorrelationSymmetryProperty(t *testing.T) {
	squash := func(x float64) float64 {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return 0
		}
		return math.Remainder(x, 1000) // avoid overflow in sums of squares
	}
	f := func(a, b, c, d, e, f2, g, h float64) bool {
		xs := []float64{squash(a), squash(b), squash(c), squash(d)}
		ys := []float64{squash(e), squash(f2), squash(g), squash(h)}
		return almostEqual(Pearson(xs, ys), Pearson(ys, xs), 1e-9) &&
			almostEqual(Spearman(xs, ys), Spearman(ys, xs), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCorrelationBoundedProperty(t *testing.T) {
	r := NewRand(7)
	for trial := 0; trial < 200; trial++ {
		n := 2 + r.Intn(20)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64()
			ys[i] = r.NormFloat64()
		}
		for name, got := range map[string]float64{
			"pearson":  Pearson(xs, ys),
			"spearman": Spearman(xs, ys),
		} {
			if got < -1-1e-9 || got > 1+1e-9 {
				t.Fatalf("%s out of [-1,1]: %v", name, got)
			}
		}
	}
}

func TestUniformSampler(t *testing.T) {
	r := NewRand(1)
	var s Uniform
	n := 20000
	var sum float64
	for i := 0; i < n; i++ {
		x := s.Sample(r)
		if x < 0 || x >= 1 {
			t.Fatalf("sample %v out of range", x)
		}
		sum += x
	}
	if mean := sum / float64(n); !almostEqual(mean, 0.5, 0.02) {
		t.Errorf("uniform mean = %v", mean)
	}
	if s.Name() != "Uniform" {
		t.Errorf("Name = %q", s.Name())
	}
}

func TestGaussianSampler(t *testing.T) {
	r := NewRand(2)
	s := Gaussian{Mu: 0.5, Sigma: 0.1}
	n := 20000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = s.Sample(r)
		if xs[i] < 0 || xs[i] >= 1 {
			t.Fatalf("sample %v out of range", xs[i])
		}
	}
	if m := Mean(xs); !almostEqual(m, 0.5, 0.02) {
		t.Errorf("gaussian mean = %v", m)
	}
	if sd := StdDev(xs); !almostEqual(sd, 0.1, 0.02) {
		t.Errorf("gaussian sd = %v", sd)
	}
}

func TestGaussianSamplerDefaults(t *testing.T) {
	r := NewRand(3)
	var s Gaussian // zero value should still produce valid samples
	for i := 0; i < 100; i++ {
		x := s.Sample(r)
		if x < 0 || x >= 1 {
			t.Fatalf("sample %v out of range", x)
		}
	}
}

func TestBetaSamplers(t *testing.T) {
	r := NewRand(4)
	n := 30000
	for _, tt := range []struct {
		s        Beta
		wantMean float64
		wantName string
	}{
		{BetaLow(), 2.0 / 7.0, "Beta-Low"},
		{BetaHigh(), 5.0 / 7.0, "Beta-High"},
		{Beta{Alpha: 0.5, Beta: 0.5}, 0.5, "Beta(0.5,0.5)"},
	} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = tt.s.Sample(r)
			if xs[i] < 0 || xs[i] >= 1 {
				t.Fatalf("%s sample %v out of range", tt.s.Name(), xs[i])
			}
		}
		if m := Mean(xs); !almostEqual(m, tt.wantMean, 0.02) {
			t.Errorf("%s mean = %v, want %v", tt.s.Name(), m, tt.wantMean)
		}
		if tt.s.Name() != tt.wantName {
			t.Errorf("Name = %q, want %q", tt.s.Name(), tt.wantName)
		}
	}
}

func TestBetaSkewDirection(t *testing.T) {
	r := NewRand(5)
	n := 5000
	low, high := BetaLow(), BetaHigh()
	var sumLow, sumHigh float64
	for i := 0; i < n; i++ {
		sumLow += low.Sample(r)
		sumHigh += high.Sample(r)
	}
	if sumLow >= sumHigh {
		t.Errorf("Beta-Low mean %v should be below Beta-High mean %v",
			sumLow/float64(n), sumHigh/float64(n))
	}
}

func TestGammaShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for non-positive shape")
		}
	}()
	sampleGamma(NewRand(1), 0)
}

func TestNewRandDeterministic(t *testing.T) {
	a, b := NewRand(99), NewRand(99)
	for i := 0; i < 10; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed should give same stream")
		}
	}
}
