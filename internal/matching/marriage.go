// Package matching implements the stable-matching algorithms Cooper adapts
// to the colocation game: Gale–Shapley stable marriage (Algorithm 1 in the
// paper, in its parallel rounds, and over class counts), Irving's stable
// roommates algorithm with rotation elimination, the paper's greedy
// completion heuristic for populations with no perfectly stable roommate
// solution, and blocking-pair analysis with the α break-away threshold of
// the paper's Figure 10.
//
// Agents are dense integer indices. A matching is a slice where match[i]
// is i's partner and Unmatched marks agents left alone.
package matching

import "fmt"

// Unmatched marks an agent with no partner in a Matching.
const Unmatched = -1

// Matching records partners: m[i] is agent i's partner index, or Unmatched.
type Matching []int

// Validate checks that the matching is a symmetric partial pairing.
func (m Matching) Validate() error {
	for i, j := range m {
		if j == Unmatched {
			continue
		}
		if j < 0 || j >= len(m) {
			return fmt.Errorf("matching: agent %d paired with out-of-range %d", i, j)
		}
		if j == i {
			return fmt.Errorf("matching: agent %d paired with itself", i)
		}
		if m[j] != i {
			return fmt.Errorf("matching: asymmetric pair %d->%d but %d->%d", i, j, j, m[j])
		}
	}
	return nil
}

// StableMarriage runs proposer-optimal Gale–Shapley deferred acceptance.
// proposerPrefs[i] ranks receiver indices best-first; receiverPrefs[j]
// ranks proposer indices best-first. Both sides must have the same size
// and complete preference lists (every list a permutation of the opposite
// side). It returns proposerMatch where proposerMatch[i] is the receiver
// matched to proposer i.
//
// With complete lists the result is a perfect matching, stable in the
// cross-set sense: no proposer and receiver prefer each other over their
// assigned partners.
func StableMarriage(proposerPrefs, receiverPrefs [][]int) ([]int, error) {
	match, _, err := StableMarriageRounds(proposerPrefs, receiverPrefs)
	return match, err
}

// StableMarriageRounds is StableMarriage in the paper's parallel rounds
// (Algorithm 1, Fig. 5), with the number of rounds: in each round every
// free proposer proposes to its best receiver not yet tried, each
// receiver keeps the best of its hold and that round's suitors, and the
// rejected proposers are the next round's free ones. Deferred acceptance
// is confluent, so neither the matching nor any proposer's proposals
// depend on the order: a proposer proposes down its list to its partner.
// A free proposer always has a receiver left to try: one rejected by
// all n would leave n receivers holding the other n-1 proposers.
func StableMarriageRounds(proposerPrefs, receiverPrefs [][]int) ([]int, int, error) {
	n := len(proposerPrefs)
	if err := validateBipartite(proposerPrefs, receiverPrefs); err != nil {
		return nil, 0, err
	}

	// receiverRank[j][i] = rank of proposer i in receiver j's list.
	receiverRank := rankMatrix(receiverPrefs)

	next := make([]int, n)  // next proposal index per proposer
	holds := make([]int, n) // receiver j currently holds proposer holds[j]
	for j := range holds {
		holds[j] = Unmatched
	}
	// free are this round's proposers, rejected the next round's.
	free, rejected := identity(n), make([]int, 0, n)
	rounds := 0
	for ; len(free) > 0; rounds++ {
		for _, m := range free {
			w := proposerPrefs[m][next[m]]
			next[m]++
			switch cur := holds[w]; {
			case cur == Unmatched:
				holds[w] = m
			case receiverRank[w][m] < receiverRank[w][cur]:
				holds[w] = m
				rejected = append(rejected, cur)
			default:
				rejected = append(rejected, m)
			}
		}
		free, rejected = rejected, free[:0]
	}

	proposerMatch := make([]int, n)
	for w, m := range holds {
		proposerMatch[m] = w
	}
	return proposerMatch, rounds, nil
}

func validateBipartite(proposerPrefs, receiverPrefs [][]int) error {
	n := len(proposerPrefs)
	if len(receiverPrefs) != n {
		return fmt.Errorf("matching: %d proposers vs %d receivers",
			n, len(receiverPrefs))
	}
	seen := make([]bool, n)
	for side, prefs := range [][][]int{proposerPrefs, receiverPrefs} {
		checked := make(map[*int]bool)
		for i, list := range prefs {
			if len(list) != n {
				return fmt.Errorf("matching: side %d agent %d has %d prefs, want %d",
					side, i, len(list), n)
			}
			// Agents of one class share one list (Penalties.Lists): a list
			// of the right length is a permutation or not whoever holds it.
			if checked[&list[0]] {
				continue
			}
			checked[&list[0]] = true
			clear(seen)
			for _, j := range list {
				if j < 0 || j >= n {
					return fmt.Errorf("matching: side %d agent %d ranks out-of-range %d",
						side, i, j)
				}
				if seen[j] {
					return fmt.Errorf("matching: side %d agent %d ranks %d twice",
						side, i, j)
				}
				seen[j] = true
			}
		}
	}
	return nil
}

// rankMatrix inverts preference lists: rank[i][j] = position of j in i's
// list. Lists that share storage share their rank row, so a side with few
// distinct lists costs one inversion per list, not per agent.
func rankMatrix(prefs [][]int) [][]int {
	type key struct {
		first *int
		n     int
	}
	rank := make([][]int, len(prefs))
	shared := make(map[key][]int)
	for i, list := range prefs {
		if len(list) == 0 {
			rank[i] = make([]int, len(prefs))
			continue
		}
		k := key{&list[0], len(list)}
		row, ok := shared[k]
		if !ok {
			row = make([]int, len(prefs))
			for pos, j := range list {
				row[j] = pos
			}
			shared[k] = row
		}
		rank[i] = row
	}
	return rank
}

// CrossBlockingPairs counts proposer/receiver pairs that prefer each other
// over their assigned partners — the marriage-stability certificate.
func CrossBlockingPairs(proposerMatch []int, proposerPrefs, receiverPrefs [][]int) [][2]int {
	n := len(proposerMatch)
	proposerRank := rankMatrix(proposerPrefs)
	receiverRank := rankMatrix(receiverPrefs)
	receiverMatch := make([]int, n)
	for i := range receiverMatch {
		receiverMatch[i] = Unmatched
	}
	for m, w := range proposerMatch {
		if w != Unmatched {
			receiverMatch[w] = m
		}
	}
	var blocking [][2]int
	for m := 0; m < n; m++ {
		for w := 0; w < n; w++ {
			if proposerMatch[m] == w {
				continue
			}
			mPrefers := proposerMatch[m] == Unmatched ||
				proposerRank[m][w] < proposerRank[m][proposerMatch[m]]
			wPrefers := receiverMatch[w] == Unmatched ||
				receiverRank[w][m] < receiverRank[w][receiverMatch[w]]
			if mPrefers && wPrefers {
				blocking = append(blocking, [2]int{m, w})
			}
		}
	}
	return blocking
}

// StableMarriageClasses is proposer-optimal deferred acceptance between
// two equally sized agent sets of a class view, run over class counts
// rather than agents. It returns proposerMatch, where proposerMatch[a] is
// the position in receivers of proposers[a]'s partner, and the number of
// class-level steps taken.
//
// Every agent ranks the other side by (penalty, partner class, partner
// index). Under that key a class ranks the other side's classes strictly
// and its members alike, so a stable matching is fixed by how many agents
// of each proposer class marry each receiver class. Deferred acceptance
// finds those counts: a proposer class proposes its whole free count to
// its next receiver class; a receiver class over capacity rejects the
// excess from its worst-ranked held classes; a class rejected at a
// receiver class never proposes to it again. Agents are then dealt in
// O(n): a class's members, in agent-index order, take partner classes in
// the class's preference order, and each class-pair block pairs its
// members in index order. The result is exactly StableMarriage over
// lists sorted by that key. Where no viewer row ties two classes
// present on the other side, Dense views among them, the key orders as
// (penalty, partner index) does: the order of Penalties.Lists.
//
// Counts alone can ping-pong. A chain of rejections, each moving the same
// amount and changing nothing but amounts held, that comes back to its
// first proposer repeats until one of those amounts runs out. Such a
// cycle is moved round all its laps but the last in one step. Every other
// step changes the structure (a pointer advances, a held amount runs out,
// a receiver class fills) or extends a chain, which repeats within as many
// steps as there are proposer classes; so the steps are bounded by the
// classes, not the agents. Memory is O(n + kp·kr) for the kp proposer and
// kr receiver classes present.
//
// A class's preference over the other side's classes is its row of p's
// preference table with the absent classes dropped, O(C·(kp+kr)) for
// all of them and no sort. A view without a table (Dense) is ranked on
// entry (Penalties.WithRanks), O(C² log C).
//
// s is the working memory, reused from call to call; the returned
// proposerMatch is s's and valid until the next call with s. A nil s
// allocates afresh.
//
// p must validate (Penalties.Validate). An agent outside p, of a class
// outside p.Matrix, or listed twice is an error.
func StableMarriageClasses(p Penalties, proposers, receivers []int, s *MarriageScratch) ([]int, int, error) {
	n := len(proposers)
	if len(receivers) != n {
		return nil, 0, fmt.Errorf("matching: %d proposers vs %d receivers", n, len(receivers))
	}
	if s == nil {
		s = new(MarriageScratch)
	}
	p = p.WithRanks()
	agents, classes := p.Agents(), len(p.Matrix)
	// side[i] is 1 + agent i's position among the proposers, minus 1 +
	// its position among the receivers, or 0 if it is on neither side.
	// members[:n] holds the proposers' positions bucketed by class and
	// members[n:] the receivers', in agent-index order within a class.
	buf := grow(&s.side, agents+2*n)
	side, members := buf[:agents], buf[agents:]
	// number[s][c] counts side s's agents of class c, then becomes 1 +
	// class c's number among side s's present classes, numbered in class
	// order, or stays 0 if side s has no agent of class c.
	numbers := grow(&s.numbers, 2*classes)
	number := [2][]int{numbers[:classes], numbers[classes:]}
	for s, set := range [2][]int{proposers, receivers} {
		for a, i := range set {
			switch {
			case i < 0 || i >= agents:
				return nil, 0, fmt.Errorf("matching: agent %d outside the %d-agent view", i, agents)
			case side[i] != 0:
				return nil, 0, fmt.Errorf("matching: agent %d listed twice", i)
			case p.Class[i] < 0 || p.Class[i] >= classes:
				return nil, 0, fmt.Errorf("matching: agent %d has class %d outside the %d-class penalty matrix",
					i, p.Class[i], classes)
			}
			side[i] = a + 1
			if s == 1 {
				side[i] = -a - 1
			}
			number[s][p.Class[i]]++
		}
	}
	var k [2]int
	for s := range number {
		for _, m := range number[s] {
			if m > 0 {
				k[s]++
			}
		}
	}
	kp, kr := k[0], k[1]

	perClass := grow(&s.perClass, 11*kp+5*kr+2)
	carve := func(m int) []int {
		s := perClass[:m:m]
		perClass = perClass[m:]
		return s
	}
	// Proposer class x is class pClass[x], with members
	// members[pStart[x]:pStart[x+1]]. free[x] of them are unheld, and it
	// proposes next to its ptr[x]-th receiver class. stamp[x] is the chain
	// it last proposed in, as that chain's at[x]-th step.
	pClass, pStart, pFill, free, ptr := carve(kp), carve(kp+1), carve(kp), carve(kp), carve(kp)
	stamp, at, stack := carve(kp), carve(kp), carve(kp)[:0]
	// Receiver class y is class rClass[y], with members
	// members[n+rStart[y]:n+rStart[y+1]]. It holds total[y] proposers,
	// none ranked worse than cut[y].
	rClass, rStart, rFill, total, cut := carve(kr), carve(kr+1), carve(kr), carve(kr), carve(kr)
	// log[3e:3e+3] is the current chain's e-th step: the receiver class,
	// the proposer's rank there and its victim's.
	log := carve(3 * kp)[:0]

	for s, cls := range [2]struct{ classOf, start, fill []int }{{pClass, pStart, pFill}, {rClass, rStart, rFill}} {
		x := 0
		for c, m := range number[s] {
			if m > 0 {
				cls.classOf[x] = c
				cls.start[x+1] = cls.start[x] + m
				x++
				number[s][c] = x
			}
		}
		copy(cls.fill, cls.start)
	}
	for i, sd := range side {
		switch c := p.Class[i]; {
		case sd > 0:
			x := number[0][c] - 1
			members[pFill[x]] = sd - 1
			pFill[x]++
		case sd < 0:
			y := number[1][c] - 1
			members[n+rFill[y]] = -sd - 1
			rFill[y]++
		}
	}

	// pref[x*kr+i] is proposer class x's i-th receiver class. For receiver
	// class y, ord[y*kp+r] is the proposer class it ranks r-th, rank is
	// ord's inverse, and held[y*kp+r] counts the members of that class it
	// holds.
	tables := grow(&s.tables, 4*kp*kr+1)
	pref, ord := tables[:kp*kr], tables[kp*kr:2*kp*kr]
	rank, held := tables[2*kp*kr:3*kp*kr], tables[3*kp*kr:]
	// list fills l with the other side's classes in the order a viewer
	// of class viewer ranks them: the viewer's row less the classes
	// absent from that side (number), in O(C) and with no sort: filtering
	// a ranked row keeps its order.
	list := func(l []int, viewer int, number []int) {
		l = l[:0]
		for _, c := range p.Ranked(viewer) {
			if u := number[c]; u > 0 {
				l = append(l, u-1)
			}
		}
	}
	for x := 0; x < kp; x++ {
		list(pref[x*kr:(x+1)*kr], pClass[x], number[1])
	}
	for y := 0; y < kr; y++ {
		list(ord[y*kp:(y+1)*kp], rClass[y], number[0])
		for r, x := range ord[y*kp : (y+1)*kp] {
			rank[y*kp+x] = r
		}
		cut[y] = -1
	}

	chain, steps := 1, 0
	for x := kp - 1; x >= 0; x-- {
		free[x] = pStart[x+1] - pStart[x]
		stack = append(stack, x)
	}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		f := free[x]
		free[x] = 0
		if stamp[x] == chain {
			// x proposes f again and nothing has changed since it last
			// did but amounts held: the chain since then is a cycle. Move
			// it round every lap that leaves each victim one member held.
			cycle := log[3*at[x]:]
			laps := n
			for e := 0; e < len(cycle); e += 3 {
				laps = min(laps, (held[cycle[e]*kp+cycle[e+2]]-1)/f)
			}
			if laps > 0 {
				for e := 0; e < len(cycle); e += 3 {
					held[cycle[e]*kp+cycle[e+1]] += laps * f
					held[cycle[e]*kp+cycle[e+2]] -= laps * f
				}
				steps++
			}
			chain++
			log = log[:0]
		}

		y := pref[x*kr+ptr[x]]
		steps++
		row := held[y*kp : (y+1)*kp]
		rx, prev := rank[y*kp+x], cut[y]
		row[rx] += f
		cut[y] = max(prev, rx)
		total[y] += f
		excess := total[y] - (rStart[y+1] - rStart[y])
		// The step is simple if y was full and rejects f members of one
		// class, which keeps members held at y, has already been
		// rejected there and had none free: then only amounts changed.
		simple := excess == f
		victims, rv := 0, 0
		for excess > 0 {
			r := cut[y]
			if row[r] == 0 {
				// Nothing is held between the worst held rank before
				// this step and the proposer's.
				if r > prev {
					cut[y] = prev
				} else {
					cut[y]--
				}
				continue
			}
			take := min(row[r], excess)
			row[r] -= take
			total[y] -= take
			excess -= take
			v := ord[y*kp+r]
			if pref[v*kr+ptr[v]] == y {
				ptr[v]++
				simple = false
			}
			if free[v] == 0 {
				stack = append(stack, v)
			} else {
				simple = false
			}
			free[v] += take
			victims++
			rv = r
		}
		if simple && victims == 1 && row[rv] > 0 {
			stamp[x], at[x] = chain, len(log)/3
			log = append(log, y, rx, rv)
		} else {
			chain++
			log = log[:0]
		}
	}

	// held becomes each block's first slot. Slot s is the receiver
	// members[n+s]: slots run receiver class by receiver class, each in
	// its rank order, so a class's members in index order take proposer
	// classes in its preference order.
	for c, acc := 0, 0; c < kp*kr; c++ {
		held[c], acc = acc, acc+held[c]
	}
	held[kp*kr] = n
	proposerMatch := grow(&s.proposerMatch, n)
	for x := 0; x < kp; x++ {
		from := pStart[x]
		for _, y := range pref[x*kr : (x+1)*kr] {
			c := y*kp + rank[y*kp+x]
			for s := held[c]; s < held[c+1]; s++ {
				proposerMatch[members[from]] = members[n+s]
				from++
			}
		}
	}
	return proposerMatch, steps, nil
}

// MarriageScratch is StableMarriageClasses' working memory, reused from
// call to call; the zero value is ready. Not safe for concurrent use.
type MarriageScratch struct {
	side, numbers, perClass, tables, proposerMatch []int
}

// grow returns *buf holding n zeros, in its own array when that is large
// enough. It makes a new one otherwise: slices.Grow would allocate twice
// where the compiler instruments the code, as under the race detector.
func grow(buf *[]int, n int) []int {
	if cap(*buf) < n {
		*buf = make([]int, n)
	}
	*buf = (*buf)[:n]
	clear(*buf)
	return *buf
}
