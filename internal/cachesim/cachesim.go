// Package cachesim is a trace-driven set-associative cache simulator with
// LRU replacement, plus synthetic address-trace generators. It exists to
// validate the analytic contention model in package arch: the arch model
// *assumes* exponential miss-ratio curves and demand-proportional sharing
// of a shared LRU cache; this package lets tests derive both properties
// from first principles by actually simulating the cache.
package cachesim

import (
	"fmt"
	"math/rand"
)

// Cache is a set-associative cache with true-LRU replacement. Addresses
// are byte addresses; lines are LineBytes wide.
type Cache struct {
	sets     int
	ways     int
	lineBits uint
	setMask  uint64
	// lines[set][way] holds tags; lru[set][way] holds recency counters
	// (higher = more recent).
	lines [][]uint64
	valid [][]bool
	lru   [][]uint64
	tick  uint64

	accesses uint64
	misses   uint64
	// missesBy tracks per-stream misses when traces are tagged.
	missesBy   map[int]uint64
	accessesBy map[int]uint64
	// owner tracks which stream installed each line, for occupancy
	// accounting in shared-cache experiments.
	owner [][]int
}

// New builds a cache of the given total capacity, associativity and line
// size. Capacity must divide evenly into sets.
func New(capacityBytes, ways, lineBytes int) (*Cache, error) {
	if capacityBytes <= 0 || ways <= 0 || lineBytes <= 0 {
		return nil, fmt.Errorf("cachesim: all parameters must be positive")
	}
	if lineBytes&(lineBytes-1) != 0 {
		return nil, fmt.Errorf("cachesim: line size %d must be a power of two", lineBytes)
	}
	linesTotal := capacityBytes / lineBytes
	if linesTotal == 0 || linesTotal%ways != 0 {
		return nil, fmt.Errorf("cachesim: capacity %dB / line %dB not divisible by %d ways",
			capacityBytes, lineBytes, ways)
	}
	sets := linesTotal / ways
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("cachesim: set count %d must be a power of two", sets)
	}
	lineBits := uint(0)
	for 1<<lineBits < lineBytes {
		lineBits++
	}
	c := &Cache{
		sets:       sets,
		ways:       ways,
		lineBits:   lineBits,
		setMask:    uint64(sets - 1),
		lines:      make([][]uint64, sets),
		valid:      make([][]bool, sets),
		lru:        make([][]uint64, sets),
		owner:      make([][]int, sets),
		missesBy:   make(map[int]uint64),
		accessesBy: make(map[int]uint64),
	}
	for s := 0; s < sets; s++ {
		c.lines[s] = make([]uint64, ways)
		c.valid[s] = make([]bool, ways)
		c.lru[s] = make([]uint64, ways)
		c.owner[s] = make([]int, ways)
	}
	return c, nil
}

// Access looks up addr for the given stream ID, installing the line on a
// miss. It reports whether the access hit.
func (c *Cache) Access(addr uint64, stream int) bool {
	set := (addr >> c.lineBits) & c.setMask
	tag := addr >> c.lineBits
	c.tick++
	c.accesses++
	c.accessesBy[stream]++

	ways := c.lines[set]
	for w := range ways {
		if c.valid[set][w] && ways[w] == tag {
			c.lru[set][w] = c.tick
			return true
		}
	}
	c.misses++
	c.missesBy[stream]++
	// Choose victim: invalid way first, else least recently used.
	victim := -1
	var oldest uint64 = ^uint64(0)
	for w := range ways {
		if !c.valid[set][w] {
			victim = w
			break
		}
		if c.lru[set][w] < oldest {
			oldest = c.lru[set][w]
			victim = w
		}
	}
	c.lines[set][victim] = tag
	c.valid[set][victim] = true
	c.lru[set][victim] = c.tick
	c.owner[set][victim] = stream
	return false
}

// MissRatio returns overall misses/accesses.
func (c *Cache) MissRatio() float64 {
	if c.accesses == 0 {
		return 0
	}
	return float64(c.misses) / float64(c.accesses)
}

// StreamMissRatio returns one stream's miss ratio.
func (c *Cache) StreamMissRatio(stream int) float64 {
	if c.accessesBy[stream] == 0 {
		return 0
	}
	return float64(c.missesBy[stream]) / float64(c.accessesBy[stream])
}

// Occupancy returns the fraction of valid lines currently owned by the
// stream.
func (c *Cache) Occupancy(stream int) float64 {
	owned, total := 0, 0
	for s := 0; s < c.sets; s++ {
		for w := 0; w < c.ways; w++ {
			if !c.valid[s][w] {
				continue
			}
			total++
			if c.owner[s][w] == stream {
				owned++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(owned) / float64(total)
}

// ResetStats clears counters but keeps cache contents (for warm-up).
func (c *Cache) ResetStats() {
	c.accesses, c.misses = 0, 0
	c.missesBy = make(map[int]uint64)
	c.accessesBy = make(map[int]uint64)
}

// Trace generates one address per call.
type Trace interface {
	Next(r *rand.Rand) uint64
}

// WorkingSetTrace models a task with temporal locality: addresses are
// drawn uniformly from a working set of the given size. LRU keeps the hot
// set resident when capacity suffices, and misses grow as capacity
// shrinks below the working set.
type WorkingSetTrace struct {
	WSBytes   uint64
	LineBytes uint64
	Base      uint64 // address-space offset so streams do not alias
}

// Next implements Trace.
func (t WorkingSetTrace) Next(r *rand.Rand) uint64 {
	lines := t.WSBytes / t.LineBytes
	if lines == 0 {
		lines = 1
	}
	return t.Base + (r.Uint64()%lines)*t.LineBytes
}

// StreamingTrace models a bandwidth-bound task with no reuse: a sequential
// scan over a region far larger than any cache.
type StreamingTrace struct {
	LineBytes uint64
	Base      uint64
	pos       uint64
}

// Next implements Trace.
func (t *StreamingTrace) Next(*rand.Rand) uint64 {
	addr := t.Base + t.pos*t.LineBytes
	t.pos++
	return addr
}

// MeasureMRC runs the trace against caches of each capacity and returns
// the empirical miss ratios — the miss-ratio curve the arch package
// models analytically. warmup accesses fill the cache before counting;
// measured accesses are then recorded.
func MeasureMRC(trace Trace, capacities []int, ways, lineBytes, warmup, measured int, r *rand.Rand) ([]float64, error) {
	out := make([]float64, len(capacities))
	for i, cap := range capacities {
		c, err := New(cap, ways, lineBytes)
		if err != nil {
			return nil, err
		}
		for k := 0; k < warmup; k++ {
			c.Access(trace.Next(r), 0)
		}
		c.ResetStats()
		for k := 0; k < measured; k++ {
			c.Access(trace.Next(r), 0)
		}
		out[i] = c.MissRatio()
	}
	return out, nil
}

// SharedRun interleaves two traces into one cache with the given access
// ratio (stream 0 issues ratio accesses per stream-1 access, supporting
// fractional ratios via randomization) and reports both streams' miss
// ratios and stream 0's occupancy.
func SharedRun(t0, t1 Trace, ratio float64, capacity, ways, lineBytes, warmup, measured int, r *rand.Rand) (miss0, miss1, occupancy0 float64, err error) {
	if ratio <= 0 {
		return 0, 0, 0, fmt.Errorf("cachesim: ratio must be positive")
	}
	c, err := New(capacity, ways, lineBytes)
	if err != nil {
		return 0, 0, 0, err
	}
	p0 := ratio / (1 + ratio) // probability the next access is stream 0's
	issue := func(count int, record bool) {
		for k := 0; k < count; k++ {
			if r.Float64() < p0 {
				c.Access(t0.Next(r), 0)
			} else {
				c.Access(t1.Next(r), 1)
			}
		}
		if !record {
			c.ResetStats()
		}
	}
	issue(warmup, false)
	issue(measured, true)
	return c.StreamMissRatio(0), c.StreamMissRatio(1), c.Occupancy(0), nil
}
