package arch

import (
	"sync"
	"testing"

	"cooper/internal/telemetry"
)

func cacheTasks() (TaskModel, TaskModel) {
	a := TaskModel{CPI0: 0.6, API: 0.02, WSBytes: 40 << 20, MissFloor: 0.3, ThreadScale: 0.9}
	b := TaskModel{CPI0: 0.5, API: 0.001, WSBytes: 4 << 20, MissFloor: 0.02, ThreadScale: 0.95}
	return a, b
}

func TestPairCacheMatchesDirectSolve(t *testing.T) {
	cmp := DefaultCMP()
	a, b := cacheTasks()
	pc := NewPairCache(cmp, telemetry.NewRegistry())

	wantA, wantB := cmp.Pair(a, b)
	gotA, gotB := pc.Pair("heavy", a, "light", b)
	if gotA != wantA || gotB != wantB {
		t.Fatal("cached pair differs from direct solve")
	}
	// Second lookup must be a hit with identical values.
	againA, againB := pc.Pair("heavy", a, "light", b)
	if againA != wantA || againB != wantB {
		t.Fatal("cache hit returned different values")
	}
	if pc.Solo("heavy", a) != cmp.Solo(a) {
		t.Fatal("cached solo differs from direct solve")
	}
}

func TestPairCacheOrderInsensitive(t *testing.T) {
	cmp := DefaultCMP()
	a, b := cacheTasks()
	pc := NewPairCache(cmp, telemetry.NewRegistry())

	pa1, pb1 := pc.Pair("heavy", a, "light", b)
	pb2, pa2 := pc.Pair("light", b, "heavy", a)
	if pa1 != pa2 || pb1 != pb2 {
		t.Fatal("swapped-order lookup returned mismatched sides")
	}
	hits, misses := pc.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1 hit (swapped order) and 1 miss", hits, misses)
	}
}

func TestPairCacheSelfPair(t *testing.T) {
	cmp := DefaultCMP()
	a, _ := cacheTasks()
	pc := NewPairCache(cmp, telemetry.NewRegistry())
	wantA, wantB := cmp.Pair(a, a)
	gotA, gotB := pc.Pair("x", a, "x", a)
	if gotA != wantA || gotB != wantB {
		t.Fatal("self-pair differs from direct solve")
	}
}

func TestPairCacheAccounting(t *testing.T) {
	cmp := DefaultCMP()
	a, b := cacheTasks()
	reg := telemetry.NewRegistry()
	pc := NewPairCache(cmp, reg)

	pc.Pair("a", a, "b", b) // miss
	pc.Pair("a", a, "b", b) // hit
	pc.Pair("a", a, "b", b) // hit
	pc.Solo("a", a)         // miss
	pc.Solo("a", a)         // hit

	if v := reg.Counter("cache.pair_misses").Value(); v != 1 {
		t.Errorf("pair misses = %d, want 1", v)
	}
	if v := reg.Counter("cache.pair_hits").Value(); v != 2 {
		t.Errorf("pair hits = %d, want 2", v)
	}
	if v := reg.Counter("cache.solo_misses").Value(); v != 1 {
		t.Errorf("solo misses = %d, want 1", v)
	}
	if v := reg.Counter("cache.solo_hits").Value(); v != 1 {
		t.Errorf("solo hits = %d, want 1", v)
	}
	if hits, misses := pc.Stats(); hits != 3 || misses != 2 {
		t.Errorf("Stats = (%d, %d), want (3, 2)", hits, misses)
	}
	if r := pc.HitRate(); r != 0.6 {
		t.Errorf("HitRate = %v, want 0.6", r)
	}
	if pc.Len() != 2 {
		t.Errorf("Len = %d, want 2 (one pair, one solo)", pc.Len())
	}
	if g := reg.Gauge("cache.size").Value(); g != 2 {
		t.Errorf("cache.size gauge = %v, want 2", g)
	}
}

func TestPairCacheEmptyNamesBypass(t *testing.T) {
	cmp := DefaultCMP()
	a, b := cacheTasks()
	pc := NewPairCache(cmp, telemetry.NewRegistry())
	pc.Pair("", a, "b", b)
	pc.Solo("", a)
	if pc.Len() != 0 {
		t.Error("unnamed tasks must not be memoized")
	}
}

func TestPairCacheKeyed(t *testing.T) {
	cmp := DefaultCMP()
	pc := NewPairCache(cmp, nil)
	if !pc.Keyed(cmp) {
		t.Error("cache should serve its own machine")
	}
	other := cmp
	other.LLCBytes *= 2
	if pc.Keyed(other) {
		t.Error("cache must reject a different CMP config")
	}
	var nilCache *PairCache
	if nilCache.Keyed(cmp) {
		t.Error("nil cache serves nothing")
	}
}

// TestPairCachePenalties pins that penalties solved through a cold cache
// are the direct solve's bit for bit in either lookup order, including
// the one the cache solves swapped ("b" sorts after "a"): an oracle
// matrix is the same with or without a cache.
func TestPairCachePenalties(t *testing.T) {
	cmp := DefaultCMP()
	a, b := cacheTasks()
	for _, swap := range []bool{false, true} {
		xName, x, yName, y := "a", a, "b", b
		if swap {
			xName, x, yName, y = "b", b, "a", a
		}
		pc := NewPairCache(cmp, nil)
		px, py := pc.Pair(xName, x, yName, y)
		wx, wy := cmp.Pair(x, y)
		if Disutility(pc.Solo(xName, x), px) != Disutility(cmp.Solo(x), wx) ||
			Disutility(pc.Solo(yName, y), py) != Disutility(cmp.Solo(y), wy) {
			t.Fatalf("swap=%v: cached penalties differ from direct computation", swap)
		}
	}
}

func TestPairCacheConcurrent(t *testing.T) {
	cmp := DefaultCMP()
	a, b := cacheTasks()
	pc := NewPairCache(cmp, telemetry.NewRegistry())
	want, _ := cmp.Pair(a, b)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				got, _ := pc.Pair("a", a, "b", b)
				if got != want {
					t.Error("concurrent lookup returned wrong perf")
					return
				}
				pc.Solo("a", a)
			}
		}()
	}
	wg.Wait()
	if pc.Len() != 2 {
		t.Errorf("Len = %d, want 2", pc.Len())
	}
}
