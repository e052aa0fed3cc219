package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"

	"cooper/internal/matching"
)

// checker collects correctness failures; each failed check also fails the
// operation it was made on. The first few are kept verbatim for the report.
type checker struct {
	problems []string
	failures int
}

const maxProblems = 8

func (c *checker) failf(format string, args ...any) {
	c.failures++
	if len(c.problems) < maxProblems {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// ok files every check that returned an error.
func (c *checker) ok(errs ...error) {
	for _, err := range errs {
		if err != nil {
			c.failf("%v", err)
		}
	}
}

// checkMatching verifies that match is a fixed-point-free involution: every
// matched agent's partner is in range, is not itself, and names it back.
// At most maxUnmatched agents may run alone.
func checkMatching(match matching.Matching, maxUnmatched int) error {
	solo := 0
	for i, j := range match {
		switch {
		case j == matching.Unmatched:
			solo++
		case j < 0 || j >= len(match):
			return fmt.Errorf("matching: agent %d has out-of-range partner %d", i, j)
		case j == i:
			return fmt.Errorf("matching: agent %d is matched to itself", i)
		case match[j] != i:
			return fmt.Errorf("matching: agent %d names %d, but %d names %d", i, j, j, match[j])
		}
	}
	if solo > maxUnmatched {
		return fmt.Errorf("matching: %d agents unmatched, at most %d allowed for %d agents",
			solo, maxUnmatched, len(match))
	}
	return nil
}

// checkPenalties verifies that each agent's reported penalty is the
// job-level matrix entry for its job and its partner's (zero when alone).
func checkPenalties(what string, got []float64, match matching.Matching, jobIdx []int, matrix [][]float64) error {
	if len(got) != len(match) {
		return fmt.Errorf("%s: %d penalties for %d agents", what, len(got), len(match))
	}
	for i, j := range match {
		want := 0.0
		if j != matching.Unmatched {
			want = matrix[jobIdx[i]][jobIdx[j]]
		}
		if got[i] != want {
			return fmt.Errorf("%s: agent %d (partner %d) reports %v, matrix says %v", what, i, j, got[i], want)
		}
	}
	return nil
}

// matchDigest hashes the matchings of a run's first digestOps operations.
// Later operations are left out because the run is bounded by time, not by
// count: the digest must cover the same operations on every run of a seed.
type matchDigest struct {
	h   hash.Hash
	ops int
}

const digestOps = 4

func newMatchDigest() *matchDigest { return &matchDigest{h: sha256.New()} }

func (d *matchDigest) add(match matching.Matching) {
	if d.ops >= digestOps {
		return
	}
	d.ops++
	buf := make([]byte, 8)
	for _, j := range match {
		binary.LittleEndian.PutUint64(buf, uint64(int64(j)))
		d.h.Write(buf)
	}
}

func (d *matchDigest) addFloats(m [][]float64) {
	if d.ops >= digestOps {
		return
	}
	d.ops++
	for _, row := range m {
		binary.Write(d.h, binary.LittleEndian, row)
	}
}

func (d *matchDigest) String() string { return hex.EncodeToString(d.h.Sum(nil)) }
