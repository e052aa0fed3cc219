package policy

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"cooper/internal/matching"
	"cooper/internal/profiler"
	"cooper/internal/telemetry"
	"cooper/internal/workload"
)

// classCase is one population over a job-level matrix: agent i runs job
// class[i] and demands its bandwidth.
type classCase struct {
	name   string
	matrix [][]float64
	class  []int
	jobs   []workload.Job
}

// classCases draws the populations the parity tests run over: odd and
// even sizes from 2 to 200 over a 20-job matrix, Uniform and skewed (one
// job holds more than half the agents), with distinct penalties and with
// a tie-heavy matrix — few distinct values, two identical columns and an
// all-zero row, as clamped oracle matrices have.
func classCases(r *rand.Rand) (catalog []workload.Job, cases []classCase) {
	const jobs = 20
	catalog = make([]workload.Job, jobs)
	for c := range catalog {
		// Neighbouring jobs share a bandwidth, so partitions tie across
		// classes as well as within them.
		catalog[c] = workload.Job{Name: fmt.Sprintf("job%02d", c), BandwidthGBps: float64(c / 2 * 3)}
	}
	distinct := make([][]float64, jobs)
	ties := make([][]float64, jobs)
	for a := range distinct {
		distinct[a], ties[a] = make([]float64, jobs), make([]float64, jobs)
		for b := range distinct[a] {
			distinct[a][b] = r.Float64() * 0.3
			ties[a][b] = float64(r.Intn(4)) * 0.07
		}
	}
	for a := range ties {
		ties[a][5] = ties[a][11]
		ties[3][a] = 0
	}
	for _, n := range []int{2, 3, 17, 64, 200} {
		for _, mix := range []string{"uniform", "skewed"} {
			for _, m := range []struct {
				name   string
				matrix [][]float64
			}{{"distinct", distinct}, {"ties", ties}} {
				class := make([]int, n)
				pop := make([]workload.Job, n)
				for i := range class {
					class[i] = r.Intn(jobs)
					if mix == "skewed" && r.Intn(5) < 3 {
						class[i] = 7
					}
					pop[i] = catalog[class[i]]
				}
				cases = append(cases, classCase{fmt.Sprintf("n=%d/%s/%s", n, mix, m.name), m.matrix, class, pop})
			}
		}
	}
	return catalog, cases
}

// rowRanked replaces each row of m by its classes' ranks under the
// marriage's key (penalty, then class): an agent-level expansion of it
// ranks partners by (penalty, class, agent index), so a marriage over that
// expansion is the reference for the class-level one where rows tie.
func rowRanked(m [][]float64) [][]float64 {
	ranked := make([][]float64, len(m))
	for a, row := range m {
		order := make([]int, len(row))
		for b := range order {
			order[b] = b
		}
		slices.SortStableFunc(order, func(x, y int) int { return cmp.Compare(row[x], row[y]) })
		ranked[a] = make([]float64, len(row))
		for r, b := range order {
			ranked[a][b] = float64(r)
		}
	}
	return ranked
}

// rowsTie reports whether the row of some class present in class ties two
// present classes.
func rowsTie(m [][]float64, class []int) bool {
	present := make(map[int]bool)
	for _, c := range class {
		present[c] = true
	}
	for a := range present {
		seen := make(map[float64]bool)
		for b := range present {
			if seen[m[a][b]] {
				return true
			}
			seen[m[a][b]] = true
		}
	}
	return false
}

// TestAssignClassesMatchesAssign is the licence for clearing the market
// over (job matrix, class-of-agent): every policy returns, for the same
// RNG draws, exactly the matching it returns over the agents×agents
// expansion of the same penalties, and counts the same work. The two
// marriages, SMR and SMP, rank partners by (penalty, class, agent index)
// and count class-level steps: where no present row ties two present
// classes they too return the expansion's matching, and wherever rows
// tie they return the marriage over the expansion of the row-ranked
// matrix, which ranks agents by that key. Their match.proposals counts
// class-level steps: at most the agent-level proposals of the expansion
// under the same key, the row-ranked one, and on tie-free rows the plain
// one.
func TestAssignClassesMatchesAssign(t *testing.T) {
	policies := append(All(), Threshold{Tolerance: 0.10})
	counters := []string{"match.proposals", "match.rotations", "match.sr_retries", "match.greedy_fallback"}
	catalog, cases := classCases(rand.New(rand.NewSource(13)))
	tied := 0
	for _, tc := range cases {
		pop := workload.Population{Jobs: tc.jobs}
		d, err := profiler.ExpandToAgents(tc.matrix, catalog, pop)
		if err != nil {
			t.Fatal(err)
		}
		ranked, err := profiler.ExpandToAgents(rowRanked(tc.matrix), catalog, pop)
		if err != nil {
			t.Fatal(err)
		}
		ties := rowsTie(tc.matrix, tc.class)
		if ties {
			tied++
		}
		bw := make([]float64, len(tc.jobs))
		for i, j := range tc.jobs {
			bw[i] = j.BandwidthGBps
		}
		for _, p := range policies {
			ctx := func() Context {
				return Context{BandwidthGBps: bw, Rand: rand.New(rand.NewSource(99)), Metrics: telemetry.NewRegistry()}
			}
			marriage := p.Name() == "SMR" || p.Name() == "SMP"
			dense, classes := ctx(), ctx()
			want, err := p.Assign(d, dense)
			if err != nil {
				t.Fatalf("%s %s: Assign: %v", tc.name, p.Name(), err)
			}
			got, err := p.AssignClasses(matching.Penalties{Matrix: tc.matrix, Class: tc.class}, classes)
			if err != nil {
				t.Fatalf("%s %s: AssignClasses: %v", tc.name, p.Name(), err)
			}
			if !ties || !marriage {
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s %s: AssignClasses = %v, Assign over the expansion = %v", tc.name, p.Name(), got, want)
				}
			}
			if marriage {
				rctx := ctx()
				ref, err := p.Assign(ranked, rctx)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, ref) {
					t.Errorf("%s %s: AssignClasses = %v, over the row-ranked expansion = %v", tc.name, p.Name(), got, ref)
				}
				// Over an expansion every class is one agent, so the
				// reference counts agent-level proposals.
				if g, w := classes.Metrics.Counter("match.proposals").Value(), rctx.Metrics.Counter("match.proposals").Value(); g > w {
					t.Errorf("%s %s: %d class steps, %d proposals over the row-ranked expansion", tc.name, p.Name(), g, w)
				}
			}
			for _, c := range counters {
				g, w := classes.Metrics.Counter(c).Value(), dense.Metrics.Counter(c).Value()
				if marriage && c == "match.proposals" {
					if !ties && g > w {
						t.Errorf("%s %s: %d class steps, %d proposals over the expansion", tc.name, p.Name(), g, w)
					}
				} else if g != w {
					t.Errorf("%s %s: %s = %d over classes, %d over the expansion", tc.name, p.Name(), c, g, w)
				}
			}
			if g, w := classes.Rand.Int63(), dense.Rand.Int63(); g != w {
				t.Errorf("%s %s: the two runs drew differently from the RNG", tc.name, p.Name())
			}
		}
	}
	if tied == 0 || tied == len(cases) {
		t.Fatalf("%d of %d cases tie a row: the table must hold both kinds", tied, len(cases))
	}
}

// TestAssignClassesValidation: a class outside the matrix is an error,
// not an index panic inside a policy.
func TestAssignClassesValidation(t *testing.T) {
	bad := matching.Penalties{Matrix: [][]float64{{0, 1}, {1, 0}}, Class: []int{0, 2}}
	for _, p := range append(All(), Threshold{Tolerance: 0.10}) {
		if _, err := p.AssignClasses(bad, testContext([]float64{1, 2}, 1)); err == nil {
			t.Errorf("%s accepted an out-of-range class", p.Name())
		}
	}
}
