package matching

import (
	"errors"
	"fmt"
)

// ErrNoStableMatching reports that Irving's algorithm proved no perfectly
// stable roommate assignment exists for the instance.
var ErrNoStableMatching = errors.New("matching: no stable roommate assignment exists")

// ErrBadPreferences reports structurally invalid preference input:
// ragged or short lists, out-of-range entries, or duplicates. Test with errors.Is(err, ErrBadPreferences). It is
// distinct from ErrNoStableMatching — the input never described a valid
// instance, so no matching question was asked.
var ErrBadPreferences = errors.New("matching: bad preference lists")

// validateRoomPrefs checks a roommates preference table before any
// working storage is allocated, so malformed input — however large —
// costs one scan, not an O(n²) table build. Lists rank all n agents,
// their owner included, so one list can serve every agent of a class —
// lists sharing storage are checked once.
func validateRoomPrefs(prefs [][]int) error {
	n := len(prefs)
	if n < 2 {
		return fmt.Errorf("%w: roommates needs at least 2 agents, got %d", ErrBadPreferences, n)
	}
	seen := make([]bool, n)
	checked := make(map[*int]bool)
	for i, list := range prefs {
		if len(list) != n {
			return fmt.Errorf("%w: agent %d ranks %d agents, want %d",
				ErrBadPreferences, i, len(list), n)
		}
		if checked[&list[0]] {
			continue
		}
		checked[&list[0]] = true
		clear(seen)
		for _, j := range list {
			if j < 0 || j >= n {
				return fmt.Errorf("%w: agent %d has invalid preference %d",
					ErrBadPreferences, i, j)
			}
			if seen[j] {
				return fmt.Errorf("%w: agent %d ranks %d twice", ErrBadPreferences, i, j)
			}
			seen[j] = true
		}
	}
	return nil
}

// NoStableError wraps ErrNoStableMatching with the agent whose preference
// list emptied — the witness the adapted policy removes before retrying.
type NoStableError struct {
	Agent int
}

func (e *NoStableError) Error() string {
	return fmt.Sprintf("matching: no stable roommate assignment (agent %d rejected by all)", e.Agent)
}

// Unwrap makes errors.Is(err, ErrNoStableMatching) work.
func (e *NoStableError) Unwrap() error { return ErrNoStableMatching }

// roomTable is the mutable preference table Irving's algorithm reduces.
type roomTable struct {
	n      int
	prefs  [][]int  // original ordered lists; agents of one class may share a row
	rank   [][]int  // rank[i][j] = position of j in prefs[i]; rows shared like prefs
	active [][]bool // active[i][k] = prefs[i][k] still in i's reduced list
	count  []int    // active entries per agent
	lo     []int    // first possibly-active index per agent (monotone)
	hi     []int    // last possibly-active index per agent (monotone)

	proposals int // phase-1 proposals issued
	rotations int // phase-2 rotations eliminated
}

// newRoomTable builds the reduction table over validated prefs. Only the
// active flags are per agent: each list starts with its owner's entry
// already struck out, which is all that tells two agents sharing it
// apart, and every scan skips struck entries.
func newRoomTable(prefs [][]int) *roomTable {
	n := len(prefs)
	t := &roomTable{
		n:      n,
		prefs:  prefs,
		rank:   make([][]int, n),
		active: make([][]bool, n),
		count:  make([]int, n),
		lo:     make([]int, n),
		hi:     make([]int, n),
	}
	active := make([]bool, n*n)
	for k := range active {
		active[k] = true
	}
	shared := make(map[*int][]int)
	for i, list := range prefs {
		rank, ok := shared[&list[0]]
		if !ok {
			rank = make([]int, n)
			for pos, j := range list {
				rank[j] = pos
			}
			shared[&list[0]] = rank
		}
		t.rank[i] = rank
		t.active[i] = active[i*n : (i+1)*n]
		t.active[i][rank[i]] = false
		t.count[i] = n - 1
		t.hi[i] = n - 1
	}
	return t
}

// delete removes the mutual pair (i, j) from both reduced lists.
func (t *roomTable) delete(i, j int) {
	if pos := t.rank[i][j]; t.active[i][pos] {
		t.active[i][pos] = false
		t.count[i]--
	}
	if pos := t.rank[j][i]; t.active[j][pos] {
		t.active[j][pos] = false
		t.count[j]--
	}
}

// first returns i's best remaining partner, or Unmatched if the list is
// empty.
func (t *roomTable) first(i int) int {
	for ; t.lo[i] < t.n; t.lo[i]++ {
		if t.active[i][t.lo[i]] {
			return t.prefs[i][t.lo[i]]
		}
	}
	return Unmatched
}

// second returns i's second-best remaining partner, or Unmatched.
func (t *roomTable) second(i int) int {
	if t.first(i) == Unmatched {
		return Unmatched
	}
	for k := t.lo[i] + 1; k < t.n; k++ {
		if t.active[i][k] {
			return t.prefs[i][k]
		}
	}
	return Unmatched
}

// last returns i's worst remaining partner, or Unmatched.
func (t *roomTable) last(i int) int {
	for ; t.hi[i] >= 0; t.hi[i]-- {
		if t.active[i][t.hi[i]] {
			return t.prefs[i][t.hi[i]]
		}
	}
	return Unmatched
}

// RoommateStats counts the work Irving's algorithm performed: phase-1
// proposals and phase-2 rotation eliminations. Both are reported even on
// failed (no-stable-matching) runs, where they measure the work spent
// proving infeasibility.
type RoommateStats struct {
	Proposals int
	Rotations int
}

// stableRoommates runs Irving's 1985 algorithm. prefs[i] ranks all n
// agents best-first, i itself included wherever it falls (see
// validateRoomPrefs); an owner's own entry is never proposed to, held or
// counted. It returns a perfect Matching, or a *NoStableError when the
// instance has no perfectly stable assignment (including every odd-n
// instance), with the algorithm's work counters either way.
func stableRoommates(prefs [][]int) (Matching, RoommateStats, error) {
	if err := validateRoomPrefs(prefs); err != nil {
		return nil, RoommateStats{}, err
	}
	if n := len(prefs); n%2 == 1 {
		// An odd population can never be perfectly matched; phase 1 would
		// discover this, but failing fast keeps the witness meaningful.
		return nil, RoommateStats{}, &NoStableError{Agent: n - 1}
	}
	t := newRoomTable(prefs)

	if agent, ok := t.phase1(); !ok {
		return nil, t.stats(), &NoStableError{Agent: agent}
	}
	if agent, ok := t.phase2(); !ok {
		return nil, t.stats(), &NoStableError{Agent: agent}
	}

	match := make(Matching, t.n)
	for i := range match {
		match[i] = t.first(i)
	}
	if err := match.Validate(); err != nil {
		// The algorithm guarantees symmetry; this is a defensive check.
		return nil, t.stats(), fmt.Errorf("matching: internal error: %w", err)
	}
	return match, t.stats(), nil
}

func (t *roomTable) stats() RoommateStats {
	return RoommateStats{Proposals: t.proposals, Rotations: t.rotations}
}

// phase1 runs the proposal sequence. Each free agent proposes down its
// list; a proposee holds its best suitor and rejects worse ones. On
// success every agent holds a proposal; the "better than held" reduction
// is then applied. Returns (witness, false) if some agent is rejected by
// everyone.
func (t *roomTable) phase1() (int, bool) {
	holds := make([]int, t.n) // holds[q] = suitor q currently holds
	for q := range holds {
		holds[q] = Unmatched
	}
	free := make([]int, 0, t.n)
	for i := t.n - 1; i >= 0; i-- {
		free = append(free, i)
	}
	for len(free) > 0 {
		p := free[len(free)-1]
		free = free[:len(free)-1]
		for {
			q := t.first(p)
			if q == Unmatched {
				return p, false // p rejected by everyone
			}
			t.proposals++
			cur := holds[q]
			if cur == Unmatched {
				holds[q] = p
				break
			}
			if t.rank[q][p] < t.rank[q][cur] {
				holds[q] = p
				t.delete(q, cur)
				free = append(free, cur)
				break
			}
			t.delete(q, p) // q rejects p; p proposes to its next choice
		}
	}
	// Reduction: q holding p deletes everyone it likes less than p.
	for q := 0; q < t.n; q++ {
		p := holds[q]
		keep := t.rank[q][p]
		for k := keep + 1; k < t.n; k++ {
			if t.active[q][k] {
				t.delete(q, t.prefs[q][k])
			}
		}
	}
	for i := 0; i < t.n; i++ {
		if t.count[i] == 0 {
			return i, false
		}
	}
	return 0, true
}

// phase2 repeatedly finds and eliminates rotations until every reduced
// list is a singleton (stable matching found) or some list empties (no
// stable matching; the emptied agent is the witness).
func (t *roomTable) phase2() (int, bool) {
	for {
		// Find an agent with at least two remaining entries.
		start := Unmatched
		for i := 0; i < t.n; i++ {
			if t.count[i] > 1 {
				start = i
				break
			}
		}
		if start == Unmatched {
			return 0, true // all singletons
		}

		// Expose a rotation: p_{k+1} = last(second(p_k)). The sequence
		// must eventually cycle; the cycle is the rotation.
		seen := make(map[int]int) // agent -> position in sequence
		var seq []int
		p := start
		for {
			if pos, ok := seen[p]; ok {
				seq = seq[pos:]
				break
			}
			seen[p] = len(seq)
			seq = append(seq, p)
			q := t.second(p)
			if q == Unmatched {
				// p's list shrank to a singleton while walking; restart
				// from a fresh agent.
				seq = nil
				break
			}
			p = t.last(q)
		}
		if seq == nil {
			continue
		}

		// Eliminate the rotation: each a_i moves from its first choice to
		// its second; that second choice rejects everyone it likes less
		// than a_i.
		t.rotations++
		type move struct{ a, b int }
		moves := make([]move, 0, len(seq))
		for _, a := range seq {
			moves = append(moves, move{a: a, b: t.second(a)})
		}
		for _, mv := range moves {
			// b accepts a: delete b's partners worse than a.
			keep := t.rank[mv.b][mv.a]
			for k := t.n - 1; k > keep; k-- {
				if t.active[mv.b][k] {
					t.delete(mv.b, t.prefs[mv.b][k])
				}
			}
		}
		for i := 0; i < t.n; i++ {
			if t.count[i] == 0 {
				return i, false
			}
		}
	}
}

// RoommateBlockingPairs returns all pairs (i, j) not matched together that
// strictly prefer each other to their current partners under prefs
// (ordinal stability check; unmatched agents prefer anyone to no one).
func RoommateBlockingPairs(match Matching, prefs [][]int) [][2]int {
	n := len(match)
	rank := make([][]int, n)
	for i, list := range prefs {
		rank[i] = make([]int, n)
		for j := range rank[i] {
			rank[i][j] = n
		}
		for pos, j := range list {
			if j >= 0 && j < n {
				rank[i][j] = pos
			}
		}
	}
	prefers := func(i, j int) bool {
		cur := match[i]
		return cur == Unmatched || rank[i][j] < rank[i][cur]
	}
	var blocking [][2]int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if match[i] == j {
				continue
			}
			if prefers(i, j) && prefers(j, i) {
				blocking = append(blocking, [2]int{i, j})
			}
		}
	}
	return blocking
}
