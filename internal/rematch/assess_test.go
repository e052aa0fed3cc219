package rematch

import (
	"math"
	"math/rand"
	"testing"

	"cooper/internal/matching"
)

// assessAlphas are the thresholds assessInstance picks from: negative
// (a matched pair mutually prefers itself), zero, and positive.
var assessAlphas = []float64{-0.3, -0.1, 0, 0.1, 0.3}

// assessInstance decodes bytes into an assessment instance, reading zero
// once the bytes run out: 1–7 classes, 2–60 agents, a threshold from
// assessAlphas, penalties from {0, ¼, ½, ¾} so that ties are common, each
// agent's class, and a partial matching — each agent still solo when its
// turn comes stays solo on a byte divisible by 4, or pairs with one of
// the solo agents after it.
func assessInstance(data []byte) (jobIdx []int, matrix [][]float64, match matching.Matching, alpha float64) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	classes, n := 1+next()%7, 2+next()%59
	alpha = assessAlphas[next()%len(assessAlphas)]
	matrix = make([][]float64, classes)
	for a := range matrix {
		matrix[a] = make([]float64, classes)
		for b := range matrix[a] {
			matrix[a][b] = float64(next()%4) / 4
		}
	}
	jobIdx = make([]int, n)
	for i := range jobIdx {
		jobIdx[i] = next() % classes
	}
	match = make(matching.Matching, n)
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
	return jobIdx, matrix, match, alpha
}

// checkAssess holds Assess on one decoded instance to the partner-listing
// scan (Action and ExpectedGain bit for bit, no partner list) and to the
// pairwise CountBlockingPairs.
func checkAssess(t *testing.T, data []byte) {
	t.Helper()
	jobIdx, matrix, match, alpha := assessInstance(data)
	got, count := Assess(jobIdx, matrix, match, alpha)
	want := Recommendations(jobIdx, matrix, match, alpha, len(jobIdx))
	for i := range want {
		g, w := got[i], want[i]
		if g.AgentID != i || g.Action != w.Action ||
			math.Float64bits(g.ExpectedGain) != math.Float64bits(w.ExpectedGain) || g.BlockingPartners != nil {
			t.Fatalf("α=%v classes=%d n=%d agent %d: Assess %+v, the listing scan %+v\nmatrix %v\njobs %v\nmatch %v",
				alpha, len(matrix), len(jobIdx), i, g, w, matrix, jobIdx, match)
		}
	}
	p := matching.Penalties{Matrix: matrix, Class: jobIdx}
	if wantCount := p.CountBlockingPairs(match, alpha); count != wantCount {
		t.Fatalf("α=%v classes=%d n=%d: Assess counts %d blocking pairs, CountBlockingPairs %d\nmatrix %v\njobs %v\nmatch %v",
			alpha, len(matrix), len(jobIdx), count, wantCount, matrix, jobIdx, match)
	}
}

// assessSeeds is the property test's table, and FuzzAssess's corpus: 300
// random byte strings, long enough for any decoded instance.
func assessSeeds() [][]byte {
	rng := rand.New(rand.NewSource(34))
	seeds := make([][]byte, 300)
	for s := range seeds {
		seeds[s] = make([]byte, 3+7*7+60+60)
		rng.Read(seeds[s])
	}
	return seeds
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
