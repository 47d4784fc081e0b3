package buffer

import (
	"sync"
)

// ObjectCache is a sharded, byte-budgeted read cache over object records,
// keyed by uint64 (a backend OID). It is the record-grained sibling of
// Sharded: where Sharded caches fixed-size disk pages for the simulated
// store, ObjectCache tracks which variable-sized objects are resident for
// a store whose records live in real files — a hit means the record does
// not need to be read back from disk. The cache carries no payload bytes
// (the benchmark's objects are sized, not valued); residency plus exact
// hit/miss/eviction accounting is the whole contract, so the same
// buffer.Stats feed the reports and the buffer-sweep ablations.
//
// Keys map to shards by low bits, so sequentially issued OIDs round-robin
// across shards and concurrent readers probing disjoint objects take
// disjoint locks. Each shard runs strict LRU over its slice of the byte
// budget: an entry charges its record's stored size, and inserting past
// the budget evicts from the cold end. With the same budget and shard
// count, two caches fed the same probe/add sequence make bit-identical
// decisions — twin-store equivalence tests depend on it.
type ObjectCache struct {
	shards []cacheShard
	mask   uint32
}

// cacheShard is one independently locked LRU slice of the cache. The
// struct is several cache lines on its own, so adjacent shard locks do
// not need explicit padding.
type cacheShard struct {
	mu      sync.Mutex
	entries map[uint64]*cacheNode
	lru     cacheNode // ring sentinel; next is the MRU side
	free    *cacheNode
	bytes   int64
	budget  int64
	stats   Stats
}

// cacheNode is one resident entry plus its LRU links. Evicted nodes are
// kept on a per-shard freelist so steady-state churn does not allocate.
type cacheNode struct {
	key        uint64
	size       int64
	prev, next *cacheNode
}

// NewObjectCache returns a cache bounded by budget bytes, partitioned
// into shards sub-caches (rounded down to a power of two; shards < 1
// yields one). A non-positive budget is an error — callers disable
// caching by not constructing one.
func NewObjectCache(budget int64, shards int) (*ObjectCache, error) {
	if budget < 1 {
		return nil, ErrZeroCapacity
	}
	n := normalizeShards(shards, int(budget))
	c := &ObjectCache{
		shards: make([]cacheShard, n),
		mask:   uint32(n - 1),
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.entries = make(map[uint64]*cacheNode)
		sh.lru.prev, sh.lru.next = &sh.lru, &sh.lru
		sh.budget = int64(shardCapacity(int(budget), n, i))
	}
	return c, nil
}

// normalizeShards rounds n down into [1, capacity] and then down to a
// power of two, so shard selection can mask instead of divide.
func normalizeShards(n, capacity int) int {
	if n < 1 {
		n = 1
	}
	if n > capacity {
		n = capacity
	}
	p := 1
	for p*2 <= n {
		p *= 2
	}
	return p
}

// shardCapacity splits capacity as evenly as possible: the first
// capacity%n shards get one extra.
func shardCapacity(capacity, n, i int) int {
	c := capacity / n
	if i < capacity%n {
		c++
	}
	return c
}

// shard returns the shard owning a key.
//
//ocblint:allocfree -- steady-state hot path
func (c *ObjectCache) shard(key uint64) *cacheShard {
	return &c.shards[uint32(key)&c.mask]
}

// Probe reports whether the key is resident, counting a hit (and
// refreshing its recency) or a miss. It is the read hot path: a hit
// means the caller can skip its disk read entirely.
//
//ocblint:allocfree -- steady-state hot path
func (c *ObjectCache) Probe(key uint64) bool {
	sh := c.shard(key)
	sh.mu.Lock()
	n, ok := sh.entries[key]
	if ok {
		sh.stats.Hits++
		sh.moveFront(n)
	} else {
		sh.stats.Misses++
	}
	sh.mu.Unlock()
	return ok
}

// Add makes the key resident charging size bytes, evicting cold entries
// past the shard's budget. Re-adding a resident key refreshes its
// recency and size without counting a hit or miss.
func (c *ObjectCache) Add(key uint64, size int64) {
	sh := c.shard(key)
	sh.mu.Lock()
	if n, ok := sh.entries[key]; ok {
		sh.bytes += size - n.size
		n.size = size
		sh.moveFront(n)
		sh.evict(n)
		sh.mu.Unlock()
		return
	}
	n := sh.free
	if n != nil {
		sh.free = n.next
	} else {
		n = new(cacheNode)
	}
	n.key, n.size = key, size
	sh.entries[key] = n
	sh.pushFront(n)
	sh.bytes += size
	sh.evict(n)
	sh.mu.Unlock()
}

// Invalidate drops the key without counting an eviction; a no-op when it
// is not resident. Callers use it to retire entries whose backing record
// changed or vanished.
func (c *ObjectCache) Invalidate(key uint64) {
	sh := c.shard(key)
	sh.mu.Lock()
	if n, ok := sh.entries[key]; ok {
		sh.remove(n)
	}
	sh.mu.Unlock()
}

// DropAll empties every shard without touching the counters — the cache
// cold start DropCache simulates between benchmark phases.
func (c *ObjectCache) DropAll() {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.entries = make(map[uint64]*cacheNode)
		sh.lru.prev, sh.lru.next = &sh.lru, &sh.lru
		sh.free = nil
		sh.bytes = 0
		sh.mu.Unlock()
	}
}

// Stats returns the counters summed across shards. Under concurrent load
// the sum is not a single instant (shards are read one at a time).
func (c *ObjectCache) Stats() Stats {
	var total Stats
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		st := sh.stats
		sh.mu.Unlock()
		total.Hits += st.Hits
		total.Misses += st.Misses
		total.Evictions += st.Evictions
	}
	return total
}

// ResetStats zeroes the counters of every shard.
func (c *ObjectCache) ResetStats() {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.stats = Stats{}
		sh.mu.Unlock()
	}
}

// Len returns the number of resident entries.
func (c *ObjectCache) Len() int {
	total := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		total += len(sh.entries)
		sh.mu.Unlock()
	}
	return total
}

// Bytes returns the resident byte total across shards.
func (c *ObjectCache) Bytes() int64 {
	var total int64
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		total += sh.bytes
		sh.mu.Unlock()
	}
	return total
}

// Budget returns the configured byte budget across shards.
func (c *ObjectCache) Budget() int64 {
	var total int64
	for i := range c.shards {
		total += c.shards[i].budget
	}
	return total
}

// NumShards returns the number of sub-caches.
func (c *ObjectCache) NumShards() int { return len(c.shards) }

// evict removes cold entries until the shard is back under budget. The
// just-added node (keep) is never the victim: one record larger than the
// whole shard budget stays resident alone rather than thrashing.
func (sh *cacheShard) evict(keep *cacheNode) {
	for sh.bytes > sh.budget {
		victim := sh.lru.prev
		if victim == &sh.lru || victim == keep {
			return
		}
		sh.stats.Evictions++
		sh.remove(victim)
	}
}

// remove unlinks a node, returns its bytes and pushes it on the freelist.
func (sh *cacheShard) remove(n *cacheNode) {
	sh.bytes -= n.size
	delete(sh.entries, n.key)
	n.prev.next = n.next
	n.next.prev = n.prev
	n.prev = nil
	n.next = sh.free
	sh.free = n
}

// moveFront refreshes a node to the MRU end.
//
//ocblint:allocfree -- steady-state hot path
func (sh *cacheShard) moveFront(n *cacheNode) {
	n.prev.next = n.next
	n.next.prev = n.prev
	sh.pushFront(n)
}

// pushFront inserts a node at the MRU end.
//
//ocblint:allocfree -- steady-state hot path
func (sh *cacheShard) pushFront(n *cacheNode) {
	n.next = sh.lru.next
	n.prev = &sh.lru
	sh.lru.next.prev = n
	sh.lru.next = n
}
