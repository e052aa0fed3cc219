package rematch

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"cooper/internal/matching"
)

// ledgerReference is the ID-keyed ledger the positional one replaced,
// its ApplyIDs and Commit verbatim: FuzzLedger holds the Ledger to it
// delta by delta and error by error.
type ledgerReference struct {
	agents    []Agent
	partnerOf map[int]int // agent ID → partner ID; Unmatched = solo; absent = dirty
	nextID    int
	churn     int // joins + departures since the last full clear
	baseN     int // population size at the last full clear (0 = never cleared)
}

func (l *ledgerReference) ApplyIDs(joinIDs, joinJobs []int, departIDs []int) (*Delta, error) {
	if joinIDs != nil && len(joinIDs) != len(joinJobs) {
		return nil, fmt.Errorf("rematch: %d join ids for %d joining jobs", len(joinIDs), len(joinJobs))
	}
	byID := make(map[int]int, len(l.agents))
	for i, a := range l.agents {
		byID[a.ID] = i
	}
	departing := make(map[int]bool, len(departIDs))
	for _, id := range departIDs {
		if _, ok := byID[id]; !ok {
			return nil, fmt.Errorf("rematch: depart of unknown agent id %d", id)
		}
		if departing[id] {
			return nil, fmt.Errorf("rematch: duplicate depart of agent id %d", id)
		}
		departing[id] = true
	}
	for _, id := range joinIDs {
		if _, used := byID[id]; used || id < 0 {
			return nil, fmt.Errorf("rematch: join under agent id %d, which is negative or already in use", id)
		}
		byID[id] = -1 // claimed by a joiner; positions are rebuilt below
	}
	if l.partnerOf == nil {
		l.partnerOf = make(map[int]int)
	}
	// Departures displace their partners: the survivor loses its
	// assignment and must be re-matched.
	for id := range departing {
		if p, ok := l.partnerOf[id]; ok {
			delete(l.partnerOf, id)
			if p != matching.Unmatched && !departing[p] {
				delete(l.partnerOf, p)
			}
		}
	}
	survivors := l.agents[:0]
	for _, a := range l.agents {
		if !departing[a.ID] {
			survivors = append(survivors, a)
		}
	}
	l.agents = survivors
	d := &Delta{Departed: append([]int(nil), departIDs...)}
	for k, job := range joinJobs {
		id := l.nextID
		if joinIDs != nil {
			id = joinIDs[k]
		}
		l.nextID = max(l.nextID, id+1)
		l.agents = append(l.agents, Agent{ID: id, Job: job})
		d.Joined = append(d.Joined, len(l.agents)-1)
	}
	l.churn += len(departIDs) + len(joinJobs)

	d.Agents = append([]Agent(nil), l.agents...)
	d.Prev = make(matching.Matching, len(l.agents))
	clear(byID)
	for i, a := range l.agents {
		byID[a.ID] = i
	}
	for i, a := range l.agents {
		p, ok := l.partnerOf[a.ID]
		switch {
		case !ok:
			d.Prev[i] = matching.Unmatched
			d.Dirty = append(d.Dirty, i)
		case p == matching.Unmatched:
			d.Prev[i] = matching.Unmatched
		default:
			d.Prev[i] = byID[p]
		}
	}
	sort.Ints(d.Dirty)
	return d, nil
}

func (l *ledgerReference) Commit(match matching.Matching, full bool) error {
	if len(match) != len(l.agents) {
		return fmt.Errorf("rematch: commit of %d assignments over %d agents", len(match), len(l.agents))
	}
	if err := match.Validate(); err != nil {
		return fmt.Errorf("rematch: commit: %w", err)
	}
	l.partnerOf = make(map[int]int, len(l.agents))
	for i, p := range match {
		if p == matching.Unmatched {
			l.partnerOf[l.agents[i].ID] = matching.Unmatched
		} else {
			l.partnerOf[l.agents[i].ID] = l.agents[p].ID
		}
	}
	if full {
		l.churn = 0
		l.baseN = len(l.agents)
	}
	return nil
}

// ledgerOps decodes bytes into a run of ledger operations, reading zero
// once the bytes run out, and applies each to both ledgers, comparing
// every Delta field and every error message, and the population, churn
// and full-clear budget, after each step. An operation is one of:
//
//   - Apply with ledger-issued IDs;
//   - ApplyIDs with caller-assigned IDs, fresh ones mixed with a live
//     agent's, a departing agent's, a fellow joiner's and negative ones;
//   - Commit of a partial matching with pairs and solos, full or not,
//     now and then of the wrong length.
//
// Nothing forces a Commit between two Applies, so failed epochs occur.
// Departures name live agents, with unknown, negative and repeated IDs
// mixed in.
func ledgerOps(t *testing.T, data []byte) {
	t.Helper()
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	var got Ledger
	var want ledgerReference
	for step := 0; len(data) > 0; step++ {
		live := want.agents
		switch op := next() % 3; op {
		case 0, 1:
			var depart []int
			for range next() % 5 {
				switch b := next(); {
				case b%8 == 0:
					depart = append(depart, want.nextID+b/8)
				case b%8 == 1:
					depart = append(depart, -1-b/8)
				case b%8 == 2 && len(depart) > 0:
					depart = append(depart, depart[b/8%len(depart)])
				case len(live) > 0:
					depart = append(depart, live[b/8%len(live)].ID)
				}
			}
			jobs := make([]int, next()%5)
			for k := range jobs {
				jobs[k] = next() % 3
			}
			var ids []int
			if op == 1 {
				ids = make([]int, 0, len(jobs))
				for range jobs {
					switch b := next(); {
					case b%8 == 0 && len(live) > 0:
						ids = append(ids, live[b/8%len(live)].ID)
					case b%8 == 1 && len(depart) > 0:
						ids = append(ids, depart[b/8%len(depart)])
					case b%8 == 2 && len(ids) > 0:
						ids = append(ids, ids[b/8%len(ids)])
					case b%8 == 3:
						ids = append(ids, -1-b/8)
					default:
						ids = append(ids, want.nextID+b%16)
					}
				}
				if next()%16 == 0 {
					ids = ids[:len(ids)/2]
				}
			}
			var gd *Delta
			var gerr error
			if op == 0 {
				gd, gerr = got.Apply(jobs, depart)
			} else {
				gd, gerr = got.ApplyIDs(ids, jobs, depart)
			}
			wd, werr := want.ApplyIDs(ids, jobs, depart)
			if fmt.Sprint(gerr) != fmt.Sprint(werr) || !reflect.DeepEqual(gd, wd) {
				t.Fatalf("step %d ApplyIDs(%v, %v, %v):\n got %+v, %v\nwant %+v, %v", step, ids, jobs, depart, gd, gerr, wd, werr)
			}
		case 2:
			match := make(matching.Matching, len(want.agents))
			for i := range match {
				match[i] = matching.Unmatched
			}
			for i := range match {
				if match[i] != matching.Unmatched {
					continue
				}
				var solo []int
				for j := i + 1; j < len(match); j++ {
					if match[j] == matching.Unmatched {
						solo = append(solo, j)
					}
				}
				if k := next(); k%4 != 0 && len(solo) > 0 {
					j := solo[k%len(solo)]
					match[i], match[j] = j, i
				}
			}
			if next()%16 == 0 {
				match = append(match, matching.Unmatched)
			}
			full := next()%2 == 0
			gerr, werr := got.Commit(match, full), want.Commit(match, full)
			if fmt.Sprint(gerr) != fmt.Sprint(werr) {
				t.Fatalf("step %d Commit(%v, %v): got %v, want %v", step, match, full, gerr, werr)
			}
		}
		gc, gb := got.churn, got.baseN
		if got.Len() != len(want.agents) || gc != want.churn || gb != want.baseN || got.FullDue(0.3) != (want.baseN == 0 || float64(want.churn) > 0.3*float64(want.baseN)) {
			t.Fatalf("step %d: len %d churn %d baseN %d, want %d %d %d", step, got.Len(), gc, gb, len(want.agents), want.churn, want.baseN)
		}
	}
}

// ledgerSeeds is the property test's table, and FuzzLedger's corpus: 300
// random byte strings of up to 400 operations' worth.
func ledgerSeeds() [][]byte {
	rng := rand.New(rand.NewSource(37))
	seeds := make([][]byte, 300)
	for s := range seeds {
		seeds[s] = make([]byte, 1+rng.Intn(400))
		rng.Read(seeds[s])
	}
	return seeds
}

// TestLedgerMatchesReference is the positional ledger's property test:
// on random runs of joins, departures, failed epochs, commits and bad
// requests it emits the ID-keyed ledger's deltas and errors exactly.
func TestLedgerMatchesReference(t *testing.T) {
	for _, seed := range ledgerSeeds() {
		ledgerOps(t, seed)
	}
}

// FuzzLedger is TestLedgerMatchesReference on arbitrary bytes.
func FuzzLedger(f *testing.F) {
	for _, seed := range ledgerSeeds() {
		f.Add(seed)
	}
	f.Fuzz(ledgerOps)
}

// TestLedgerAllocations pins the ledger's cost to the churn: an epoch's
// ApplyIDs and Commit at 1% churn allocate the same number of times at
// n = 2,500 and n = 10,000 — the delta's slices and nothing that grows
// with the population, as an ID-keyed map would.
func TestLedgerAllocations(t *testing.T) {
	allocs := func(n int) float64 {
		var l Ledger
		ids, jobs := make([]int, n), make([]int, n)
		for i := range ids {
			ids[i], jobs[i] = 3*i, i%20
		}
		if _, err := l.ApplyIDs(ids, jobs, nil); err != nil {
			t.Fatal(err)
		}
		match := make(matching.Matching, n)
		for i := range match {
			match[i] = i ^ 1
		}
		if err := l.Commit(match, true); err != nil {
			t.Fatal(err)
		}
		k := n / 100
		depart, join := make([]int, k), make([]int, k)
		return testing.AllocsPerRun(20, func() {
			// The departures are spread over the population; the joiners
			// take fresh IDs under caller assignment.
			for x := range depart {
				depart[x] = l.agents[x*(n/k)].ID
				join[x] = l.nextID + 2*x
			}
			if _, err := l.ApplyIDs(join, jobs[:k], depart); err != nil {
				t.Fatal(err)
			}
			if err := l.Commit(match, false); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(2500), allocs(10000)
	if small != large {
		t.Fatalf("ApplyIDs+Commit allocate %v times at n=2500 and %v at n=10000: something grows with the population", small, large)
	}
	t.Logf("%v allocations per epoch at either size", small)
}
