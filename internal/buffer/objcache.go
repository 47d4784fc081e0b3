package buffer

import (
	"sync"
)

// ObjectCache is a byte-budgeted read cache over object records, keyed by
// uint64 (a backend OID): one strict LRU list behind one mutex. It is the
// record-grained sibling of Sharded: where Sharded caches fixed-size disk
// pages for the simulated store, ObjectCache tracks which variable-sized
// objects are resident for a store whose records live in real files — a
// hit means the record does not need to be read back from disk. The cache
// carries no payload bytes (the benchmark's objects are sized, not valued);
// residency plus exact hit/miss/eviction accounting is the whole contract,
// so the same buffer.Stats feed the reports and the buffer-sweep ablations.
//
// An entry charges its record's stored size, and inserting past the budget
// evicts from the cold end. With the same budget, two caches fed the same
// probe/add sequence make bit-identical decisions — twin-store equivalence
// tests depend on it.
type ObjectCache struct {
	mu      sync.Mutex
	entries map[uint64]*cacheNode
	lru     cacheNode // ring sentinel; next is the MRU side
	free    *cacheNode
	bytes   int64
	budget  int64
	stats   Stats
}

// cacheNode is one resident entry plus its LRU links. Evicted nodes are
// kept on a freelist so steady-state churn does not allocate.
type cacheNode struct {
	key        uint64
	size       int64
	prev, next *cacheNode
}

// NewObjectCache returns a cache bounded by budget bytes. The second
// argument is ignored: the cache is one LRU list, and the parameter stays
// only because the benchmarks module still passes it. A non-positive
// budget is an error — callers disable caching by not constructing one.
func NewObjectCache(budget int64, _ int) (*ObjectCache, error) {
	if budget < 1 {
		return nil, ErrZeroCapacity
	}
	c := &ObjectCache{entries: make(map[uint64]*cacheNode), budget: budget}
	c.lru.prev, c.lru.next = &c.lru, &c.lru
	return c, nil
}

// Probe reports whether the key is resident, counting a hit (and
// refreshing its recency) or a miss. It is the read hot path: a hit
// means the caller can skip its disk read entirely.
//
//ocblint:allocfree -- steady-state hot path
func (c *ObjectCache) Probe(key uint64) bool {
	c.mu.Lock()
	n, ok := c.entries[key]
	if ok {
		c.stats.Hits++
		c.moveFront(n)
	} else {
		c.stats.Misses++
	}
	c.mu.Unlock()
	return ok
}

// Add makes the key resident charging size bytes, evicting cold entries
// past the budget. Re-adding a resident key refreshes its recency and size
// without counting a hit or miss.
func (c *ObjectCache) Add(key uint64, size int64) {
	c.mu.Lock()
	if n, ok := c.entries[key]; ok {
		c.bytes += size - n.size
		n.size = size
		c.moveFront(n)
		c.evict(n)
		c.mu.Unlock()
		return
	}
	n := c.free
	if n != nil {
		c.free = n.next
	} else {
		n = new(cacheNode)
	}
	n.key, n.size = key, size
	c.entries[key] = n
	c.pushFront(n)
	c.bytes += size
	c.evict(n)
	c.mu.Unlock()
}

// Invalidate drops the key without counting an eviction; a no-op when it
// is not resident. Callers use it to retire entries whose backing record
// changed or vanished.
func (c *ObjectCache) Invalidate(key uint64) {
	c.mu.Lock()
	if n, ok := c.entries[key]; ok {
		c.remove(n)
	}
	c.mu.Unlock()
}

// DropAll empties the cache without touching the counters — the cache
// cold start DropCache simulates between benchmark phases.
func (c *ObjectCache) DropAll() {
	c.mu.Lock()
	c.entries = make(map[uint64]*cacheNode)
	c.lru.prev, c.lru.next = &c.lru, &c.lru
	c.free = nil
	c.bytes = 0
	c.mu.Unlock()
}

// Stats returns a snapshot of the counters.
func (c *ObjectCache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// ResetStats zeroes the counters.
func (c *ObjectCache) ResetStats() {
	c.mu.Lock()
	c.stats = Stats{}
	c.mu.Unlock()
}

// Len returns the number of resident entries.
func (c *ObjectCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Bytes returns the resident byte total.
func (c *ObjectCache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Budget returns the configured byte budget.
func (c *ObjectCache) Budget() int64 { return c.budget }

// evict removes cold entries until the cache is back under budget. The
// just-added node (keep) is never the victim: one record larger than the
// whole budget stays resident alone rather than thrashing.
func (c *ObjectCache) evict(keep *cacheNode) {
	for c.bytes > c.budget {
		victim := c.lru.prev
		if victim == &c.lru || victim == keep {
			return
		}
		c.stats.Evictions++
		c.remove(victim)
	}
}

// remove unlinks a node, returns its bytes and pushes it on the freelist.
func (c *ObjectCache) remove(n *cacheNode) {
	c.bytes -= n.size
	delete(c.entries, n.key)
	n.prev.next = n.next
	n.next.prev = n.prev
	n.prev = nil
	n.next = c.free
	c.free = n
}

// moveFront refreshes a node to the MRU end.
//
//ocblint:allocfree -- steady-state hot path
func (c *ObjectCache) moveFront(n *cacheNode) {
	n.prev.next = n.next
	n.next.prev = n.prev
	c.pushFront(n)
}

// pushFront inserts a node at the MRU end.
//
//ocblint:allocfree -- steady-state hot path
func (c *ObjectCache) pushFront(n *cacheNode) {
	n.next = c.lru.next
	n.prev = &c.lru
	c.lru.next.prev = n
	c.lru.next = n
}
