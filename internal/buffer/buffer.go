// Package buffer implements the main-memory page cache between the object
// store and the simulated disk.
//
// The paper's testbed faulted 4 KB pages through SunOS virtual memory into
// 8 MB of RAM (Texas is a virtual-memory-mapped store). This pool models the
// same behaviour explicitly: a bounded set of resident page frames, exact
// LRU replacement, and exact hit/miss/eviction accounting. A miss charges
// one disk read; evicting a dirty victim charges one disk write — exactly
// the I/Os OCB reports.
//
// LRU is the only replacement policy. It is a stack algorithm, so the
// misses of every capacity follow from one reference string's stack
// distances, which is what the pool's exact oracle test checks.
package buffer

import (
	"errors"
	"fmt"
	"sync"

	"ocb/internal/disk"
)

// Stats counts pool events.
type Stats struct {
	Hits           uint64
	Misses         uint64
	Evictions      uint64
	DirtyEvictions uint64
	Flushes        uint64
}

// HitRatio returns hits/(hits+misses), or 0 when no accesses happened.
func (s Stats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// frame is a resident page plus its recency links. Frames form a circular
// doubly-linked list around a sentinel, most recently used at the front;
// the victim is the back.
type frame struct {
	page       *disk.Page
	dirty      bool
	prev, next *frame
}

// ErrZeroCapacity is returned by New for a non-positive capacity.
var ErrZeroCapacity = errors.New("buffer: pool capacity must be >= 1")

// Pool is a bounded page cache, safe for concurrent use: every exported
// method runs under the pool's one mutex, so concurrent clients fault into
// one buffer under one replacement order and the I/O count is the one a
// single buffer of that size makes at any number of clients. Two clients
// faulting the same page serialize on the lock, which keeps every page read
// at most once per residency — the single disk arm of the testbed. The
// compound operations (GetBatch, Update, UpdateNoFault, Mutate) each hold
// the lock once for the whole operation.
//
// The frame table is a slice indexed by page id (the disk issues ids
// densely from 1 and never reuses them), so the residency check is a bounds
// check and a load — the software stand-in for the MMU lookup of a
// memory-mapped store. It costs 8 bytes per page id the pool has ever
// admitted, resident or not. Only a page the disk handed over grows it: an
// id from outside is bounds-checked and reported absent.
type Pool struct {
	mu       sync.Mutex
	d        *disk.Disk
	capacity int
	frames   []*frame // nil = not resident
	resident int      // non-nil entries of frames
	dirty    int      // resident frames with the dirty bit set
	sentinel *frame   // circular list anchor
	spare    *frame   // the last victim, reused by the next admit
	stats    Stats
}

// New returns a pool over d holding at most capacity pages.
func New(d *disk.Disk, capacity int) (*Pool, error) {
	if capacity < 1 {
		return nil, ErrZeroCapacity
	}
	s := &frame{}
	s.prev, s.next = s, s
	return &Pool{
		d:        d,
		capacity: capacity,
		sentinel: s,
	}, nil
}

// lookup returns id's frame, nil when the page is not resident. The
// unexported methods below all expect p.mu held.
func (p *Pool) lookup(id disk.PageID) *frame {
	if i := uint64(id); i < uint64(len(p.frames)) {
		return p.frames[i]
	}
	return nil
}

// Capacity returns the maximum number of resident pages. It is fixed at
// New, so it needs no lock.
func (p *Pool) Capacity() int { return p.capacity }

// Len returns the current number of resident pages.
func (p *Pool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.resident
}

// Contains reports residency without touching replacement state.
func (p *Pool) Contains(id disk.PageID) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lookup(id) != nil
}

// Get returns the page, faulting it in from disk on a miss. A miss charges
// one disk read; if the pool is full, a victim is evicted first (one disk
// write if it was dirty).
//
//ocblint:allocfree -- steady-state hot path
func (p *Pool) Get(id disk.PageID) (*disk.Page, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.get(id)
}

// GetBatch faults a run of pages in order, exactly as repeated Get calls
// would — same hit/miss accounting, same eviction decisions — under one
// lock acquisition. It returns how many pages were faulted successfully;
// on error, pages past the failing one are untouched.
//
//ocblint:allocfree -- steady-state hot path
func (p *Pool) GetBatch(ids []disk.PageID) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, id := range ids {
		if _, err := p.get(id); err != nil {
			return i, err
		}
	}
	return len(ids), nil
}

// GetIfResident returns the page only if it is already resident,
// counting neither a hit nor a miss.
//
//ocblint:allocfree -- steady-state hot path
func (p *Pool) GetIfResident(id disk.PageID) (*disk.Page, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.getIfResident(id)
}

// Install places a freshly allocated page into the pool without a disk
// read (there is nothing to read yet); it is immediately dirty. Used for
// creation-order placement of new objects.
func (p *Pool) Install(pg *disk.Page) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if f := p.lookup(pg.ID); f != nil {
		p.setDirty(f)
		p.touch(f)
		return nil
	}
	return p.admit(pg, true)
}

// MarkDirty flags a resident page as modified. It is a no-op for
// non-resident pages.
func (p *Pool) MarkDirty(id disk.PageID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.markDirty(id)
}

// Update faults the page in (hit/miss accounted as in Get) and applies fn
// to it while holding the pool lock; if fn reports a mutation the frame is
// marked dirty before the lock is released. This is the only safe way to
// edit a page's slot directory while other clients fault pages concurrently.
func (p *Pool) Update(id disk.PageID, fn func(*disk.Page) bool) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	pg, err := p.get(id)
	if err != nil {
		return err
	}
	if fn(pg) {
		p.markDirty(id)
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
func (p *Pool) UpdateNoFault(id disk.PageID, fn func(*disk.Page) bool) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if pg, ok := p.getIfResident(id); ok {
		if fn(pg) {
			p.markDirty(id)
		}
		return nil
	}
	pg, ok := p.d.Peek(id)
	if !ok {
		return fmt.Errorf("%w: %d", disk.ErrNoSuchPage, id)
	}
	fn(pg)
	return nil
}

// PageFate tells Mutate what to do with a page after an in-place edit
// performed under the pool lock.
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

// Mutate faults the page in and applies fn under the pool lock, then
// disposes of the frame according to the returned fate: KeepDirty marks it
// dirty, Drop discards it without write-back (the caller typically frees
// the disk page next). It returns the fate fn chose.
func (p *Pool) Mutate(id disk.PageID, fn func(*disk.Page) PageFate) (PageFate, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	pg, err := p.get(id)
	if err != nil {
		return KeepClean, err
	}
	fate := fn(pg)
	switch fate {
	case KeepDirty:
		p.markDirty(id)
	case Drop:
		p.discard(id)
	}
	return fate, nil
}

// FlushAll writes every dirty resident page to disk (commit), in ring order
// from the front, so which pages a failed flush left dirty is repeatable.
// It stops at the last dirty frame: a commit after one update visits the
// frames in front of that page, not the whole pool.
func (p *Pool) FlushAll() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for f := p.sentinel.next; p.dirty > 0; f = f.next {
		if !f.dirty {
			continue
		}
		if err := p.d.Write(f.page); err != nil {
			return err
		}
		f.dirty = false
		p.dirty--
		p.stats.Flushes++
	}
	return nil
}

// Discard drops a page from the pool without writing it back, dirty or
// not. Used when a page has been rewritten or freed behind the pool's back
// (physical reorganization).
func (p *Pool) Discard(id disk.PageID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.discard(id)
}

// DropAll empties the pool without any write-back. It simulates a cache
// cold start (e.g. system restart between benchmark phases).
func (p *Pool) DropAll() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for f := p.sentinel.next; f != p.sentinel; f = f.next {
		p.frames[f.page.ID] = nil
	}
	p.resident = 0
	p.dirty = 0
	p.sentinel.prev, p.sentinel.next = p.sentinel, p.sentinel
}

// Stats returns a snapshot of the pool counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// ResetStats zeroes the pool counters.
func (p *Pool) ResetStats() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stats = Stats{}
}

// ResidentPages returns ids of all resident pages in recency order, most
// recently used first.
func (p *Pool) ResidentPages() []disk.PageID {
	p.mu.Lock()
	defer p.mu.Unlock()
	ids := make([]disk.PageID, 0, p.resident)
	for f := p.sentinel.next; f != p.sentinel; f = f.next {
		ids = append(ids, f.page.ID)
	}
	return ids
}

// get is Get without the lock.
func (p *Pool) get(id disk.PageID) (*disk.Page, error) {
	if f := p.lookup(id); f != nil {
		p.stats.Hits++
		p.touch(f)
		return f.page, nil
	}
	p.stats.Misses++
	pg, err := p.d.Read(id)
	if err != nil {
		return nil, err
	}
	if err := p.admit(pg, false); err != nil {
		return nil, err
	}
	return pg, nil
}

// getIfResident is GetIfResident without the lock.
func (p *Pool) getIfResident(id disk.PageID) (*disk.Page, bool) {
	f := p.lookup(id)
	if f == nil {
		return nil, false
	}
	return f.page, true
}

// markDirty is MarkDirty without the lock.
func (p *Pool) markDirty(id disk.PageID) {
	if f := p.lookup(id); f != nil {
		p.setDirty(f)
	}
}

// discard is Discard without the lock.
func (p *Pool) discard(id disk.PageID) {
	if f := p.lookup(id); f != nil {
		p.remove(f)
	}
}

// setDirty flags a resident frame dirty, keeping the dirty count.
func (p *Pool) setDirty(f *frame) {
	if !f.dirty {
		f.dirty = true
		p.dirty++
	}
}

// touch moves a hit frame to the front of the recency list.
func (p *Pool) touch(f *frame) {
	p.unlink(f)
	p.pushFront(f)
}

// admit inserts pg, evicting if full. The evicted victim's frame is the one
// the page moves into, so a fault on a full pool allocates nothing.
func (p *Pool) admit(pg *disk.Page, dirty bool) error {
	for p.resident >= p.capacity {
		if err := p.evictOne(); err != nil {
			return err
		}
	}
	f := p.spare
	if f == nil {
		f = &frame{}
	}
	p.spare = nil
	*f = frame{page: pg, dirty: dirty}
	if dirty {
		p.dirty++
	}
	p.pushFront(f)
	i := int(pg.ID)
	if n := i + 1 - len(p.frames); n > 0 {
		p.frames = append(p.frames, make([]*frame, n)...)
	}
	p.frames[i] = f
	p.resident++
	return nil
}

// evictOne removes the least recently used frame, writing it back if
// dirty.
func (p *Pool) evictOne() error {
	victim := p.sentinel.prev // back of the list
	if victim == p.sentinel {
		return errors.New("buffer: evict on empty pool")
	}
	if victim.dirty {
		if err := p.d.Write(victim.page); err != nil {
			return err
		}
		p.stats.DirtyEvictions++
	}
	p.stats.Evictions++
	p.remove(victim)
	victim.page = nil // let go of the page; the frame itself is kept
	p.spare = victim
	return nil
}

// remove takes a resident frame off the ring and out of the frame table.
func (p *Pool) remove(f *frame) {
	p.unlink(f)
	p.frames[f.page.ID] = nil
	p.resident--
	if f.dirty {
		p.dirty--
	}
}

// pushFront inserts f right after the sentinel.
func (p *Pool) pushFront(f *frame) {
	f.next = p.sentinel.next
	f.prev = p.sentinel
	p.sentinel.next.prev = f
	p.sentinel.next = f
}

// unlink removes f from the ring.
func (p *Pool) unlink(f *frame) {
	f.prev.next = f.next
	f.next.prev = f.prev
	f.prev, f.next = nil, nil
}
