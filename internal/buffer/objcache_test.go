package buffer

import (
	"errors"
	"sync"
	"testing"
)

// TestObjectCacheConstruction pins the constructor contract: non-positive
// budgets are refused (callers disable caching by not building one), the
// shard count rounds down to a power of two, and the per-shard budgets sum
// back to the requested total.
func TestObjectCacheConstruction(t *testing.T) {
	for _, bad := range []int64{0, -1} {
		if _, err := NewObjectCache(bad, 4); !errors.Is(err, ErrZeroCapacity) {
			t.Fatalf("NewObjectCache(%d): err = %v, want ErrZeroCapacity", bad, err)
		}
	}
	for _, tc := range []struct {
		shards, want int
	}{{-3, 1}, {0, 1}, {1, 1}, {2, 2}, {3, 2}, {7, 4}, {8, 8}} {
		c, err := NewObjectCache(1<<20, tc.shards)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.NumShards(); got != tc.want {
			t.Fatalf("shards=%d normalized to %d, want %d", tc.shards, got, tc.want)
		}
		if got := c.Budget(); got != 1<<20 {
			t.Fatalf("shard budgets sum to %d, want %d", got, 1<<20)
		}
	}
	// A budget smaller than the shard count caps the shard count.
	c, err := NewObjectCache(3, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.NumShards(); got != 2 {
		t.Fatalf("budget=3 shards=8 normalized to %d shards, want 2", got)
	}
}

// TestObjectCacheProbeAdd covers the hit/miss accounting on the read hot
// path: a probe before Add is a miss, after Add a hit, and re-adding a
// resident key refreshes it without touching the counters.
func TestObjectCacheProbeAdd(t *testing.T) {
	c, err := NewObjectCache(1<<20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c.Probe(7) {
		t.Fatal("probe hit on an empty cache")
	}
	c.Add(7, 100)
	if !c.Probe(7) {
		t.Fatal("probe miss after Add")
	}
	if got := c.Bytes(); got != 100 {
		t.Fatalf("Bytes = %d after one 100-byte Add, want 100", got)
	}
	c.Add(7, 250) // resident re-add: size refresh, no counter change
	if got := c.Bytes(); got != 250 {
		t.Fatalf("Bytes = %d after size refresh, want 250", got)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Evictions != 0 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 0 evictions", st)
	}
	if got := c.Len(); got != 1 {
		t.Fatalf("Len = %d, want 1", got)
	}
	c.ResetStats()
	if st := c.Stats(); st != (Stats{}) {
		t.Fatalf("stats after reset = %+v", st)
	}
}

// TestObjectCacheLRU drives a single shard past its budget and checks
// strict LRU order: the coldest key goes first, and a probe refreshes
// recency so the probed key survives the next eviction.
func TestObjectCacheLRU(t *testing.T) {
	c, err := NewObjectCache(300, 1)
	if err != nil {
		t.Fatal(err)
	}
	c.Add(1, 100)
	c.Add(2, 100)
	c.Add(3, 100)
	c.Probe(1) // refresh 1; cold order is now 2, 3, 1
	c.Add(4, 100)
	if c.Probe(2) {
		t.Fatal("coldest key 2 survived past-budget Add")
	}
	for _, want := range []uint64{3, 1, 4} {
		if !c.Probe(want) {
			t.Fatalf("key %d evicted out of LRU order", want)
		}
	}
	if ev := c.Stats().Evictions; ev != 1 {
		t.Fatalf("evictions = %d, want 1", ev)
	}
	if got := c.Bytes(); got != 300 {
		t.Fatalf("Bytes = %d after eviction back under budget, want 300", got)
	}
}

// TestObjectCacheOversized pins the anti-thrash rule: a record larger
// than the whole shard budget evicts everything else but stays resident
// itself rather than bouncing in and out.
func TestObjectCacheOversized(t *testing.T) {
	c, err := NewObjectCache(100, 1)
	if err != nil {
		t.Fatal(err)
	}
	c.Add(1, 60)
	c.Add(2, 500)
	if c.Probe(1) {
		t.Fatal("small entry survived an oversized Add")
	}
	if !c.Probe(2) {
		t.Fatal("oversized entry did not stay resident")
	}
}

// TestObjectCacheInvalidate checks that Invalidate retires an entry
// without counting an eviction, tolerates absent keys, and frees the
// entry's bytes for future admissions.
func TestObjectCacheInvalidate(t *testing.T) {
	c, err := NewObjectCache(1<<20, 2)
	if err != nil {
		t.Fatal(err)
	}
	c.Add(1, 100)
	c.Invalidate(1)
	c.Invalidate(99) // absent: no-op
	if c.Probe(1) {
		t.Fatal("invalidated key still resident")
	}
	st := c.Stats()
	if st.Evictions != 0 {
		t.Fatalf("Invalidate counted %d evictions", st.Evictions)
	}
	if got := c.Bytes(); got != 0 {
		t.Fatalf("Bytes = %d after invalidating the only entry", got)
	}
}

// TestObjectCacheDropAll checks the phase-boundary cold start: every
// entry vanishes, bytes go to zero, and the counters survive so a report
// spanning a DropCache still adds up.
func TestObjectCacheDropAll(t *testing.T) {
	c, err := NewObjectCache(1<<20, 4)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 64; k++ {
		c.Add(k, 50)
		c.Probe(k)
	}
	before := c.Stats()
	c.DropAll()
	if got := c.Len(); got != 0 {
		t.Fatalf("Len = %d after DropAll", got)
	}
	if got := c.Bytes(); got != 0 {
		t.Fatalf("Bytes = %d after DropAll", got)
	}
	if after := c.Stats(); after != before {
		t.Fatalf("DropAll changed the counters: %+v -> %+v", before, after)
	}
	if c.Probe(1) {
		t.Fatal("entry survived DropAll")
	}
}

// TestObjectCacheDeterminism feeds two identically configured caches the
// same mixed sequence and requires bit-identical decisions and counters —
// the property twin-store equivalence tests lean on.
func TestObjectCacheDeterminism(t *testing.T) {
	build := func() *ObjectCache {
		c, err := NewObjectCache(4096, 4)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	a, b := build(), build()
	seed := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 5000; i++ {
		seed = seed*6364136223846793005 + 1442695040888963407
		key := seed % 257
		size := int64(16 + seed%96)
		switch seed % 7 {
		case 0:
			a.Invalidate(key)
			b.Invalidate(key)
		case 1, 2:
			a.Add(key, size)
			b.Add(key, size)
		default:
			if a.Probe(key) != b.Probe(key) {
				t.Fatalf("step %d: twin caches disagree on key %d", i, key)
			}
		}
	}
	if sa, sb := a.Stats(), b.Stats(); sa != sb {
		t.Fatalf("twin caches diverged: %+v vs %+v", sa, sb)
	}
	if a.Len() != b.Len() || a.Bytes() != b.Bytes() {
		t.Fatal("twin caches hold different residents")
	}
}

// TestObjectCacheProbeAllocFree pins the hot path at zero allocations:
// both hits and misses must not allocate, or every cached Access in
// waldisk would pay the cost the cache exists to avoid.
func TestObjectCacheProbeAllocFree(t *testing.T) {
	c, err := NewObjectCache(1<<20, 8)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 128; k++ {
		c.Add(k, 64)
	}
	var k uint64
	if n := testing.AllocsPerRun(1000, func() {
		k++
		c.Probe(k % 200) // mix of hits and misses
	}); n != 0 {
		t.Fatalf("Probe allocates %.1f per run, want 0", n)
	}
}

// TestObjectCacheConcurrent hammers disjoint and overlapping keys from
// many goroutines; with -race this is the cache's data-race gate, and the
// invariant checked after the dust settles is bytes-never-past-budget.
func TestObjectCacheConcurrent(t *testing.T) {
	c, err := NewObjectCache(8192, 8)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				key := uint64(w*1000 + i%300)
				switch i % 5 {
				case 0:
					c.Invalidate(key)
				case 1, 2:
					c.Add(key, int64(32+i%64))
				default:
					c.Probe(key)
				}
			}
		}(w)
	}
	wg.Wait()
	if got, budget := c.Bytes(), c.Budget(); got > budget {
		t.Fatalf("resident bytes %d exceed budget %d", got, budget)
	}
	st := c.Stats()
	if st.Hits+st.Misses == 0 {
		t.Fatal("no probes counted")
	}
}
