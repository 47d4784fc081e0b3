package buffer

import (
	"fmt"
	"math/bits"
	"sync"

	"ocb/internal/disk"
)

// PageFate tells Sharded.Mutate what to do with a page after an in-place
// edit performed under the shard lock.
type PageFate int

const (
	// KeepClean leaves the frame untouched.
	KeepClean PageFate = iota
	// KeepDirty marks the frame dirty (the edit must reach disk).
	KeepDirty
	// Drop discards the frame without write-back (the page was emptied or
	// rewritten behind the pool's back).
	Drop
)

// Sharded is a page cache partitioned into independently locked sub-pools.
// The low bits of a page id select its shard (the remaining bits index that
// sub-pool's frame table), so concurrent benchmark clients faulting
// disjoint pages proceed in parallel instead of serializing on one pool
// lock; two clients faulting the same page still serialize on its shard,
// which is what keeps every page read at most once per residency.
//
// Each shard is a plain Pool with a private slice of the total frame
// capacity and its own replacement state. With a single shard the behaviour
// — hits, misses, evictions, victim choice — is bit-for-bit identical to
// Pool, which keeps single-client benchmark runs reproducible against
// historical results; sharded geometries trade that exact global LRU order
// for parallelism, the same trade hardware buffer managers make.
type Sharded struct {
	shards []poolShard
	mask   uint32
	policy Policy
}

type poolShard struct {
	mu   sync.Mutex
	pool *Pool
	_    [48]byte // pad to 64 bytes so adjacent shard locks do not false-share
}

// NewSharded returns a pool of capacity frames over d, partitioned into
// shards sub-pools (rounded to a power of two, clamped so every shard keeps
// at least one frame). shards <= 1 yields a single shard, byte-compatible
// with Pool.
func NewSharded(d *disk.Disk, capacity int, policy Policy, shards int) (*Sharded, error) {
	if capacity < 1 {
		return nil, ErrZeroCapacity
	}
	n := normalizeShards(shards, capacity)
	s := &Sharded{
		shards: make([]poolShard, n),
		mask:   uint32(n - 1),
		policy: policy,
	}
	shift := uint(bits.TrailingZeros(uint(n)))
	for i := range s.shards {
		p, err := newPool(d, shardCapacity(capacity, n, i), policy, shift)
		if err != nil {
			return nil, err
		}
		s.shards[i].pool = p
	}
	return s, nil
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
// capacity%n shards get one extra frame.
func shardCapacity(capacity, n, i int) int {
	c := capacity / n
	if i < capacity%n {
		c++
	}
	return c
}

// shard returns the shard owning a page id. Sequential creation-order page
// ids round-robin across shards, which balances both space and lock load.
//
//ocblint:allocfree -- steady-state hot path
func (s *Sharded) shard(id disk.PageID) *poolShard {
	return &s.shards[uint32(id)&s.mask]
}

// NumShards returns the number of sub-pools.
func (s *Sharded) NumShards() int { return len(s.shards) }

// Policy returns the replacement policy.
func (s *Sharded) Policy() Policy { return s.policy }

// Capacity returns the total frame capacity across shards.
func (s *Sharded) Capacity() int {
	total := 0
	for i := range s.shards {
		total += s.shards[i].pool.Capacity()
	}
	return total
}

// Len returns the current number of resident pages.
func (s *Sharded) Len() int {
	total := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		total += sh.pool.Len()
		sh.mu.Unlock()
	}
	return total
}

// Contains reports residency without touching replacement state.
func (s *Sharded) Contains(id disk.PageID) bool {
	sh := s.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.pool.Contains(id)
}

// Get returns the page, faulting it in from disk on a miss. A miss charges
// one disk read; if the shard is full, a victim is evicted first (one disk
// write if it was dirty).
//
//ocblint:allocfree -- steady-state hot path
func (s *Sharded) Get(id disk.PageID) (*disk.Page, error) {
	sh := s.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.pool.Get(id)
}

// GetBatch faults a run of pages in order, exactly as repeated Get calls
// would — same hit/miss accounting, same eviction decisions — but runs of
// consecutive ids mapping to the same shard are served under a single lock
// acquisition. With one shard (the reproducible single-client geometry) the
// whole batch costs one lock round-trip. It returns how many pages were
// faulted successfully; on error, pages past the failing one are untouched.
//
//ocblint:allocfree -- steady-state hot path
func (s *Sharded) GetBatch(ids []disk.PageID) (int, error) {
	i := 0
	for i < len(ids) {
		sh := s.shard(ids[i])
		sh.mu.Lock()
		for i < len(ids) && s.shard(ids[i]) == sh {
			if _, err := sh.pool.Get(ids[i]); err != nil {
				sh.mu.Unlock()
				return i, err
			}
			i++
		}
		sh.mu.Unlock()
	}
	return len(ids), nil
}

// GetIfResident returns the page only if it is already resident, counting
// neither a hit nor a miss.
//
//ocblint:allocfree -- steady-state hot path
func (s *Sharded) GetIfResident(id disk.PageID) (*disk.Page, bool) {
	sh := s.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.pool.GetIfResident(id)
}

// Install places a freshly allocated page into the pool without a disk
// read; it is immediately dirty.
func (s *Sharded) Install(pg *disk.Page) error {
	sh := s.shard(pg.ID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.pool.Install(pg)
}

// MarkDirty flags a resident page as modified. It is a no-op for
// non-resident pages.
func (s *Sharded) MarkDirty(id disk.PageID) {
	sh := s.shard(id)
	sh.mu.Lock()
	sh.pool.MarkDirty(id)
	sh.mu.Unlock()
}

// Update faults the page in (hit/miss accounted as in Get) and applies fn
// to it while holding the shard lock; if fn reports a mutation the frame is
// marked dirty before the lock is released. This is the only safe way to
// edit a page's slot directory while other clients fault pages concurrently.
func (s *Sharded) Update(id disk.PageID, fn func(*disk.Page) bool) error {
	sh := s.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	pg, err := sh.pool.Get(id)
	if err != nil {
		return err
	}
	if fn(pg) {
		sh.pool.MarkDirty(id)
	}
	return nil
}

// UpdateNoFault applies fn to the page under the shard lock without
// faulting it in: a resident frame is edited and marked dirty when fn
// reports a mutation; a non-resident page is edited directly on the device
// catalog with no I/O charge and no dirty mark — mirroring the original
// store's creation-order placement, where the fill page could keep
// receiving objects after an eviction without re-reading it. The shard
// lock still serializes the edit against every pool-mediated access to
// the page.
func (s *Sharded) UpdateNoFault(id disk.PageID, fn func(*disk.Page) bool) error {
	sh := s.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if pg, ok := sh.pool.GetIfResident(id); ok {
		if fn(pg) {
			sh.pool.MarkDirty(id)
		}
		return nil
	}
	pg, ok := sh.pool.d.Peek(id)
	if !ok {
		return fmt.Errorf("%w: %d", disk.ErrNoSuchPage, id)
	}
	fn(pg)
	return nil
}

// Mutate faults the page in and applies fn under the shard lock, then
// disposes of the frame according to the returned fate: KeepDirty marks it
// dirty, Drop discards it without write-back (the caller typically frees
// the disk page next). It returns the fate fn chose.
func (s *Sharded) Mutate(id disk.PageID, fn func(*disk.Page) PageFate) (PageFate, error) {
	sh := s.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	pg, err := sh.pool.Get(id)
	if err != nil {
		return KeepClean, err
	}
	fate := fn(pg)
	switch fate {
	case KeepDirty:
		sh.pool.MarkDirty(id)
	case Drop:
		sh.pool.Discard(id)
	}
	return fate, nil
}

// FlushAll writes every dirty resident page to disk (commit).
func (s *Sharded) FlushAll() error {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		err := sh.pool.FlushAll()
		sh.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// Discard drops a page from the pool without writing it back, dirty or not.
func (s *Sharded) Discard(id disk.PageID) {
	sh := s.shard(id)
	sh.mu.Lock()
	sh.pool.Discard(id)
	sh.mu.Unlock()
}

// DropAll empties every shard without any write-back (cache cold start).
func (s *Sharded) DropAll() {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.pool.DropAll()
		sh.mu.Unlock()
	}
}

// Resize changes the total capacity, redistributing it across shards and
// evicting from shards that shrink.
func (s *Sharded) Resize(capacity int) error {
	if capacity < len(s.shards) {
		// Every shard must keep at least one frame.
		return ErrZeroCapacity
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		err := sh.pool.Resize(shardCapacity(capacity, len(s.shards), i))
		sh.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// Stats returns the pool counters summed across shards. Under concurrent
// load the sum is not a single instant (shards are read one at a time).
func (s *Sharded) Stats() Stats {
	var total Stats
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		st := sh.pool.Stats()
		sh.mu.Unlock()
		total.Hits += st.Hits
		total.Misses += st.Misses
		total.Evictions += st.Evictions
		total.DirtyEvictions += st.DirtyEvictions
		total.Flushes += st.Flushes
	}
	return total
}

// ResetStats zeroes the counters of every shard.
func (s *Sharded) ResetStats() {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.pool.ResetStats()
		sh.mu.Unlock()
	}
}

// ResidentPages returns ids of all resident pages (order unspecified).
func (s *Sharded) ResidentPages() []disk.PageID {
	var ids []disk.PageID
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		ids = append(ids, sh.pool.ResidentPages()...)
		sh.mu.Unlock()
	}
	return ids
}
