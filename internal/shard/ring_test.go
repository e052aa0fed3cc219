package shard

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"sort"
	"testing"

	"cooper/internal/policy"
)

// sprintfRing is NewRing as it was written with fmt.Sprintf and hash/fnv:
// the reference the allocation-free ring must reproduce point for point,
// so that every partition ever computed stays what it was.
func sprintfRing(shards int) (hashes []uint64, owner []int) {
	type point struct {
		h     uint64
		shard int
	}
	var points []point
	for s := 0; s < shards; s++ {
		for v := 0; v < virtualNodes; v++ {
			h := fnv.New64a()
			h.Write([]byte(fmt.Sprintf("shard-%d-vnode-%d", s, v)))
			points = append(points, point{h.Sum64(), s})
		}
	}
	sort.Slice(points, func(a, b int) bool {
		if points[a].h != points[b].h {
			return points[a].h < points[b].h
		}
		return points[a].shard < points[b].shard
	})
	for _, p := range points {
		hashes, owner = append(hashes, p.h), append(owner, p.shard)
	}
	return hashes, owner
}

// TestKeyBytesMatchSprintf pins the hash keys byte for byte against
// their fmt.Sprintf form — negative, zero and large IDs; zero,
// fractional, negative and huge bandwidths; odd job names — and the
// hand-rolled hash against hash/fnv on the same bytes.
func TestKeyBytesMatchSprintf(t *testing.T) {
	ids := []int{0, 1, -1, 9, 10, 4095, -4096, 1 << 31, math.MaxInt64, math.MinInt64}
	bandwidths := []float64{0, 0.5, 3.999, 4, 4.0001, 7.9, 8, 11.5, 127.75, -0.5, -4, -9.3, 1e9}
	names := []string{"", "a", "correlation", "x|y", "naïve", "job with spaces"}
	for _, name := range names {
		for _, bw := range bandwidths {
			for _, id := range ids {
				want := fmt.Sprintf("%s|%d|%d", name, int(bw/bandwidthBucketGBps), id)
				if got := string(appendKey(nil, name, bw, id)); got != want {
					t.Fatalf("key(%q, %v, %d) = %q, want %q", name, bw, id, got, want)
				}
				h := fnv.New64a()
				h.Write([]byte(want))
				if got := hash64([]byte(want)); got != h.Sum64() {
					t.Fatalf("hash64(%q) = %#x, FNV-1a says %#x", want, got, h.Sum64())
				}
			}
		}
	}
	for _, s := range ids {
		for _, v := range []int{0, 7, 63, 1000} {
			want := fmt.Sprintf("shard-%d-vnode-%d", s, v)
			if got := string(appendVnodeLabel(nil, s, v)); got != want {
				t.Fatalf("vnode label (%d, %d) = %q, want %q", s, v, got, want)
			}
		}
	}
}

// TestRingMatchesSprintfRing compares whole rings, and every agent's
// shard, with the reference construction.
func TestRingMatchesSprintfRing(t *testing.T) {
	jobs, _ := testJobs(600, "a", "b", "c", "d", "e")
	for _, shards := range []int{1, 2, 7, 32, 256} {
		ring := NewRing(shards)
		hashes, owner := sprintfRing(shards)
		if !reflect.DeepEqual(ring.hashes, hashes) || !reflect.DeepEqual(ring.owner, owner) {
			t.Fatalf("shards=%d: ring points differ from the Sprintf-built ring", shards)
		}
		for i, job := range jobs {
			id := 3*i - 100
			if got, want := ring.ShardOf(job, id), ring.owning(hash64([]byte(fmt.Sprintf("%s|%d|%d", job.Name, int(job.BandwidthGBps/4), id)))); got != want {
				t.Fatalf("shards=%d: ShardOf(%s, %d) = %d, the Sprintf key's owner = %d", shards, job.Name, id, got, want)
			}
		}
	}
}

// TestMarketPartitionIsTheRings checks the two ways a market learns its
// partition against each other: handed the ring's partition as ShardOf it
// clears and repairs exactly as when it partitions for itself, and a
// partition that does not fit the population is rejected.
func TestMarketPartitionIsTheRings(t *testing.T) {
	ctx := context.Background()
	jobs, idx := testJobs(301, "a", "b", "c", "d")
	matrix := testMatrix(4)
	ids := make([]int, len(jobs))
	for i := range ids {
		ids[i] = 1000 + 7*i
	}
	shardOf, groups := NewRing(8).PartitionIDs(jobs, ids)
	market := func(given []int) *Market {
		return &Market{Shards: 8, Policy: policy.StableMarriageRandom{}, Seed: 5, IDs: ids, ShardOf: given}
	}
	own, err := market(nil).Clear(ctx, jobs, idx, matrix)
	if err != nil {
		t.Fatal(err)
	}
	given, err := market(shardOf).Clear(ctx, jobs, idx, matrix)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(own, given) {
		t.Fatal("a clear handed the ring's partition differs from one that partitions for itself")
	}
	if !reflect.DeepEqual(own.Groups, groups) {
		t.Fatal("the market's groups are not the ring's")
	}

	prev := append(own.Match[:0:0], own.Match...)
	var dirty []int
	for _, i := range []int{4, 90, 200} {
		if p := prev[i]; p >= 0 {
			prev[p] = -1
			dirty = append(dirty, p)
		}
		prev[i] = -1
		dirty = append(dirty, i)
	}
	sort.Ints(dirty)
	ownRepair, err := market(nil).Repair(ctx, jobs, idx, matrix, prev, dirty, 0)
	if err != nil {
		t.Fatal(err)
	}
	givenRepair, err := market(shardOf).Repair(ctx, jobs, idx, matrix, prev, dirty, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ownRepair, givenRepair) {
		t.Fatal("a repair handed the ring's partition differs from one that partitions for itself")
	}

	if _, err := market(shardOf[1:]).Clear(ctx, jobs, idx, matrix); err == nil {
		t.Error("a partition one agent short was accepted")
	}
	off := append([]int(nil), shardOf...)
	off[17] = 8
	if _, err := market(off).Repair(ctx, jobs, idx, matrix, prev, dirty, 0); err == nil {
		t.Error("a partition naming shard 8 of 8 was accepted")
	}
}
