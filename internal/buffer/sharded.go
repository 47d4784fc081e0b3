package buffer

import (
	"fmt"
	"sync"

	"ocb/internal/disk"
)

// PageFate tells Sharded.Mutate what to do with a page after an in-place
// edit performed under the pool lock.
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

// Sharded is the store's page cache for concurrent clients: one exact-LRU
// Pool behind one mutex, so every client faults into the same buffer of
// capacity frames under one replacement order, and the I/O count is the
// one a single buffer of that size makes at any number of clients. Two
// clients faulting the same page serialize on the lock, which keeps every
// page read at most once per residency. A store's shard count partitions
// only its object-table locks, never these frames.
type Sharded struct {
	mu   sync.Mutex
	pool *Pool
}

// NewSharded returns a pool of capacity frames over d. Both trailing
// arguments are ignored: LRU is the only policy, and the buffer is never
// split. They, the LRU constant and the type's name stay only because the
// benchmarks module still calls NewSharded with them.
func NewSharded(d *disk.Disk, capacity int, _ Policy, _ int) (*Sharded, error) {
	p, err := New(d, capacity)
	if err != nil {
		return nil, err
	}
	return &Sharded{pool: p}, nil
}

// Capacity returns the frame capacity.
func (s *Sharded) Capacity() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pool.Capacity()
}

// Len returns the current number of resident pages.
func (s *Sharded) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pool.Len()
}

// Contains reports residency without touching replacement state.
func (s *Sharded) Contains(id disk.PageID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pool.Contains(id)
}

// Get returns the page, faulting it in from disk on a miss. A miss charges
// one disk read; if the pool is full, a victim is evicted first (one disk
// write if it was dirty).
//
//ocblint:allocfree -- steady-state hot path
func (s *Sharded) Get(id disk.PageID) (*disk.Page, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pool.Get(id)
}

// GetBatch faults a run of pages in order, exactly as repeated Get calls
// would — same hit/miss accounting, same eviction decisions — under one
// lock acquisition. It returns how many pages were faulted successfully;
// on error, pages past the failing one are untouched.
//
//ocblint:allocfree -- steady-state hot path
func (s *Sharded) GetBatch(ids []disk.PageID) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, id := range ids {
		if _, err := s.pool.Get(id); err != nil {
			return i, err
		}
	}
	return len(ids), nil
}

// GetIfResident returns the page only if it is already resident, counting
// neither a hit nor a miss.
//
//ocblint:allocfree -- steady-state hot path
func (s *Sharded) GetIfResident(id disk.PageID) (*disk.Page, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pool.GetIfResident(id)
}

// Install places a freshly allocated page into the pool without a disk
// read; it is immediately dirty.
func (s *Sharded) Install(pg *disk.Page) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pool.Install(pg)
}

// MarkDirty flags a resident page as modified. It is a no-op for
// non-resident pages.
func (s *Sharded) MarkDirty(id disk.PageID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pool.MarkDirty(id)
}

// Update faults the page in (hit/miss accounted as in Get) and applies fn
// to it while holding the pool lock; if fn reports a mutation the frame is
// marked dirty before the lock is released. This is the only safe way to
// edit a page's slot directory while other clients fault pages concurrently.
func (s *Sharded) Update(id disk.PageID, fn func(*disk.Page) bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	pg, err := s.pool.Get(id)
	if err != nil {
		return err
	}
	if fn(pg) {
		s.pool.MarkDirty(id)
	}
	return nil
}

// UpdateNoFault applies fn to the page under the pool lock without
// faulting it in: a resident frame is edited and marked dirty when fn
// reports a mutation; a non-resident page is edited directly on the device
// catalog with no I/O charge and no dirty mark — mirroring the original
// store's creation-order placement, where the fill page could keep
// receiving objects after an eviction without re-reading it. The pool
// lock still serializes the edit against every pool-mediated access to
// the page.
func (s *Sharded) UpdateNoFault(id disk.PageID, fn func(*disk.Page) bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if pg, ok := s.pool.GetIfResident(id); ok {
		if fn(pg) {
			s.pool.MarkDirty(id)
		}
		return nil
	}
	pg, ok := s.pool.d.Peek(id)
	if !ok {
		return fmt.Errorf("%w: %d", disk.ErrNoSuchPage, id)
	}
	fn(pg)
	return nil
}

// Mutate faults the page in and applies fn under the pool lock, then
// disposes of the frame according to the returned fate: KeepDirty marks it
// dirty, Drop discards it without write-back (the caller typically frees
// the disk page next). It returns the fate fn chose.
func (s *Sharded) Mutate(id disk.PageID, fn func(*disk.Page) PageFate) (PageFate, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	pg, err := s.pool.Get(id)
	if err != nil {
		return KeepClean, err
	}
	fate := fn(pg)
	switch fate {
	case KeepDirty:
		s.pool.MarkDirty(id)
	case Drop:
		s.pool.Discard(id)
	}
	return fate, nil
}

// FlushAll writes every dirty resident page to disk (commit).
func (s *Sharded) FlushAll() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pool.FlushAll()
}

// Discard drops a page from the pool without writing it back, dirty or not.
func (s *Sharded) Discard(id disk.PageID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pool.Discard(id)
}

// DropAll empties the pool without any write-back (cache cold start).
func (s *Sharded) DropAll() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pool.DropAll()
}

// Resize changes the capacity, evicting pages if it shrinks.
func (s *Sharded) Resize(capacity int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pool.Resize(capacity)
}

// Stats returns a snapshot of the pool counters.
func (s *Sharded) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pool.Stats()
}

// ResetStats zeroes the pool counters.
func (s *Sharded) ResetStats() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pool.ResetStats()
}

// ResidentPages returns ids of all resident pages in recency order, most
// recently used first.
func (s *Sharded) ResidentPages() []disk.PageID {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pool.ResidentPages()
}
