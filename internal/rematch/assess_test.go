package rematch

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"cooper/internal/agent"
	"cooper/internal/matching"
	"cooper/internal/policy"
)

// assessAlphas are the thresholds assessInstance picks from: negative
// (a matched pair mutually prefers itself), zero, and positive.
var assessAlphas = []float64{-0.3, -0.1, 0, 0.1, 0.3}

// assessPopulation is one population on a market's matrix: every agent's
// class and a partial matching.
type assessPopulation struct {
	jobIdx []int
	match  matching.Matching
}

// assessMarket decodes bytes into one assessment market and three
// populations on it, reading zero once the bytes run out: 1–7 classes, a
// threshold from assessAlphas, penalties from {0, ¼, ½, ¾} so that ties
// are common, a zero entry negated (−0) when its byte's high bit is set,
// one row possibly a copy of another; then per population 2–60 agents,
// each agent's class, and a partial matching — each agent still solo
// when its turn comes stays solo on a byte divisible by 4, or pairs with
// one of the solo agents after it.
func assessMarket(data []byte) (matrix [][]float64, alpha float64, pops []assessPopulation) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	classes := 1 + next()%7
	alpha = assessAlphas[next()%len(assessAlphas)]
	matrix = make([][]float64, classes)
	for a := range matrix {
		matrix[a] = make([]float64, classes)
		for b := range matrix[a] {
			v := next()
			matrix[a][b] = float64(v%4) / 4
			if v >= 128 && matrix[a][b] == 0 {
				matrix[a][b] = math.Copysign(0, -1)
			}
		}
	}
	if z := next() % (2 * classes); z < classes {
		copy(matrix[z], matrix[next()%classes])
	}
	for range 3 {
		n := 2 + next()%59
		jobIdx := make([]int, n)
		for i := range jobIdx {
			jobIdx[i] = next() % classes
		}
		match := make(matching.Matching, n)
		for i := range match {
			match[i] = matching.Unmatched
		}
		for i := range match {
			if match[i] != matching.Unmatched {
				continue
			}
			var solo []int
			for j := i + 1; j < n; j++ {
				if match[j] == matching.Unmatched {
					solo = append(solo, j)
				}
			}
			if k := next(); k%4 != 0 && len(solo) > 0 {
				j := solo[k%len(solo)]
				match[i], match[j] = j, i
			}
		}
		pops = append(pops, assessPopulation{jobIdx, match})
	}
	return matrix, alpha, pops
}

// checkAssess holds Assess on every population of one decoded market to
// the partner-listing scan — each agent's Recommendation and the fresh
// slice Recommendations materialises, Action and ExpectedGain bit for
// bit, no partner list, and BreakAways the listing's BreakAway verdicts —
// and to the pairwise CountBlockingPairs. The view carrying the matrix's
// preference table, built once for the three populations as the market
// engine builds it, must give what the view without one gives, bit for
// bit, in Assess and in the listing scan alike; and so must the three
// run through one scratch that a larger market dirtied first.
func checkAssess(t *testing.T, data []byte) {
	t.Helper()
	matrix, alpha, pops := assessMarket(data)
	ranks := matching.Rank(matrix)
	s := dirtyAssessScratch()
	for _, pop := range pops {
		jobIdx, match := pop.jobIdx, pop.match
		p := matching.Penalties{Matrix: matrix, Class: jobIdx}
		tabled := p
		tabled.Ranks = ranks
		got, gotT := Assess(p, match, alpha, nil), Assess(tabled, match, alpha, nil)
		if reused := Assess(tabled, match, alpha, s); !sameAssessment(reused, gotT) {
			t.Fatalf("α=%v n=%d: Assess through a reused scratch %+v, through none %+v\nmatrix %v\njobs %v\nmatch %v",
				alpha, len(jobIdx), reused, gotT, matrix, jobIdx, match)
		}
		recs := got.Recommendations()
		if !reflect.DeepEqual(recs, gotT.Recommendations()) ||
			got.BlockingPairs != gotT.BlockingPairs || got.BreakAways != gotT.BreakAways {
			t.Fatalf("α=%v n=%d: Assess without the table and with it disagree (%d and %d pairs)\nmatrix %v\njobs %v\nmatch %v",
				alpha, len(jobIdx), got.BlockingPairs, gotT.BlockingPairs, matrix, jobIdx, match)
		}
		want := Recommendations(jobIdx, matrix, match, alpha, len(jobIdx))
		if wantT := RecommendationsWithin(nbhdAll(len(jobIdx)), tabled, match, alpha, len(jobIdx)); !reflect.DeepEqual(want, wantT) {
			t.Fatalf("α=%v n=%d: the listing scan without the table and with it disagree\nmatrix %v\njobs %v\nmatch %v",
				alpha, len(jobIdx), matrix, jobIdx, match)
		}
		if len(recs) != len(want) {
			t.Fatalf("α=%v n=%d: Assess materialised %d recommendations", alpha, len(jobIdx), len(recs))
		}
		breaks := 0
		for i, w := range want {
			g := got.Recommendation(i)
			if g.AgentID != i || g.Action != w.Action ||
				math.Float64bits(g.ExpectedGain) != math.Float64bits(w.ExpectedGain) || g.BlockingPartners != nil ||
				!reflect.DeepEqual(g, recs[i]) {
				t.Fatalf("α=%v classes=%d n=%d agent %d: Assess %+v (materialised %+v), the listing scan %+v\nmatrix %v\njobs %v\nmatch %v",
					alpha, len(matrix), len(jobIdx), i, g, recs[i], w, matrix, jobIdx, match)
			}
			if w.Action == agent.BreakAway {
				breaks++
			}
		}
		if got.BreakAways != breaks {
			t.Fatalf("α=%v classes=%d n=%d: Assess counts %d break-aways, the listing scan %d\nmatrix %v\njobs %v\nmatch %v",
				alpha, len(matrix), len(jobIdx), got.BreakAways, breaks, matrix, jobIdx, match)
		}
		if wantCount := p.CountBlockingPairs(match, alpha); got.BlockingPairs != wantCount {
			t.Fatalf("α=%v classes=%d n=%d: Assess counts %d blocking pairs, CountBlockingPairs %d\nmatrix %v\njobs %v\nmatch %v",
				alpha, len(matrix), len(jobIdx), got.BlockingPairs, wantCount, matrix, jobIdx, match)
		}
	}
}

// dirtyAssessScratch is a scratch a market larger than any assessMarket
// decodes has left its counts in: 9 classes, 80 agents paired in turn.
func dirtyAssessScratch() *Scratch {
	matrix := make([][]float64, 9)
	for a := range matrix {
		matrix[a] = make([]float64, 9)
		for b := range matrix[a] {
			matrix[a][b] = float64((a*7+b*3)%5) / 4
		}
	}
	p := matching.Penalties{Matrix: matrix, Class: make([]int, 80)}
	match := make(matching.Matching, 80)
	for i := range match {
		p.Class[i], match[i] = i%9, i^1
	}
	s := new(Scratch)
	Assess(p, match, 0, s)
	return s
}

// sameAssessment reports whether two assessments of one matching agree
// bit for bit: counts, cells and every verdict's gain.
func sameAssessment(a, b Assessment) bool {
	if a.BlockingPairs != b.BlockingPairs || a.BreakAways != b.BreakAways || a.cols != b.cols ||
		len(a.verdicts) != len(b.verdicts) {
		return false
	}
	for c, v := range a.verdicts {
		if v.breaks != b.verdicts[c].breaks || math.Float64bits(v.gain) != math.Float64bits(b.verdicts[c].gain) {
			return false
		}
	}
	return true
}

// assessSeeds is the property test's table, and FuzzAssess's corpus: 300
// random byte strings, long enough for any decoded market, and three made
// to decode into a matrix of ±0 entries, one with equal rows, and a
// population in which one class has no agent and another runs alone.
func assessSeeds() [][]byte {
	rng := rand.New(rand.NewSource(34))
	seeds := make([][]byte, 300)
	for s := range seeds {
		seeds[s] = make([]byte, 2+7*7+2+3*(1+60+60))
		rng.Read(seeds[s])
	}
	return append(seeds,
		// 3 classes, every entry zero and half of them −0, α = −0.1 so
		// every agent gains next to every class; 6 agents of classes
		// 0,1,2,… paired in turn.
		[]byte{2, 1, 128, 0, 128, 0, 128, 0, 128, 0, 128, 5,
			4, 0, 1, 2, 0, 1, 2, 1, 1, 1, 1, 1, 1},
		// 3 classes, α = 0, row 0 a copy of row 1; 12 agents, some solo.
		[]byte{2, 2, 1, 2, 3, 3, 0, 1, 2, 2, 0, 0, 1,
			10, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 1, 0, 2, 3, 1, 4, 1, 5, 9, 2, 6, 5},
		// 4 classes, α = 0, no row copied; 10 agents: two of class 2, both
		// alone (no later agent can pick an earlier one), then classes 0
		// and 1 in turn; class 3 has no agent.
		[]byte{3, 2, 0, 1, 2, 3, 3, 2, 1, 0, 1, 1, 2, 2, 2, 3, 0, 1, 7,
			8, 2, 2, 0, 1, 0, 1, 0, 1, 0, 1, 0, 4, 1, 1, 1, 1, 1, 1, 1, 1},
	)
}

// TestAssessMatchesListingAndCount is the class-count assessment's
// property test: on tie-heavy instances of every size, with solos, at
// negative, zero and positive α, it agrees with the scan that lists every
// blocking partner and with the pairwise count.
func TestAssessMatchesListingAndCount(t *testing.T) {
	for _, seed := range assessSeeds() {
		checkAssess(t, seed)
	}
}

// FuzzAssess is TestAssessMatchesListingAndCount on arbitrary bytes.
func FuzzAssess(f *testing.F) {
	for _, seed := range assessSeeds() {
		f.Add(seed)
	}
	f.Fuzz(checkAssess)
}

// BenchmarkAssess times one assessment of an SMR matching: of 800 and
// 20,000 agents of 20 classes on a matrix of 8 distinct values, whose
// rows tie classes the way the predicted matrix's do, through the view
// carrying its preference table, as the market engine assesses; and of
// 800 agents through that view's Dense expansion (every agent its own
// class, no table), which ranks each class's row per call.
func BenchmarkAssess(b *testing.B) {
	r := rand.New(rand.NewSource(42))
	matrix := make([][]float64, 20)
	for a := range matrix {
		matrix[a] = make([]float64, 20)
		for c := range matrix[a] {
			matrix[a][c] = float64(r.Intn(8)) * 0.05
		}
	}
	ranks := matching.Rank(matrix)
	view := func(n int) (matching.Penalties, matching.Matching) {
		p := matching.Penalties{Matrix: matrix, Class: make([]int, n), Ranks: ranks}
		for i := range p.Class {
			p.Class[i] = r.Intn(20)
		}
		match, err := policy.StableMarriageRandom{}.AssignClasses(p, policy.Context{Rand: rand.New(rand.NewSource(1))})
		if err != nil {
			b.Fatal(err)
		}
		return p, match
	}
	bench := func(name string, p matching.Penalties, match matching.Matching) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				Assess(p, match, 0, nil)
			}
		})
	}
	for _, n := range []int{800, 20000} {
		p, match := view(n)
		bench(fmt.Sprintf("classes/n=%d", n), p, match)
	}
	p, match := view(800)
	dense := matching.Penalties{Matrix: make([][]float64, 800), Class: nbhdAll(800)}
	for i := range dense.Matrix {
		dense.Matrix[i] = make([]float64, 800)
		for j := range dense.Matrix[i] {
			if i != j {
				dense.Matrix[i][j] = p.At(i, j)
			}
		}
	}
	bench("dense/n=800", dense, match)
}
