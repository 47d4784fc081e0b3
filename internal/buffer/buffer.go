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

	"ocb/internal/disk"
)

// Policy names a page replacement algorithm. LRU is the only one. The type
// survives only as NewSharded's parameter, which ignores it; both go once
// the benchmarks module stops passing buffer.LRU.
type Policy int

// LRU is exact least-recently-used replacement, the pool's only policy.
const LRU Policy = 0

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

// Pool is a bounded page cache. It is not safe for concurrent use; the
// store serializes access (matching the single disk arm of the testbed).
//
// The frame table is a slice indexed by page id (the disk issues ids
// densely from 1 and never reuses them), so the residency check is a bounds
// check and a load — the software stand-in for the MMU lookup of a
// memory-mapped store. It costs 8 bytes per page id the pool has ever
// admitted, resident or not. Only a page the disk handed over grows it: an
// id from outside is bounds-checked and reported absent.
type Pool struct {
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

// lookup returns id's frame, nil when the page is not resident.
func (p *Pool) lookup(id disk.PageID) *frame {
	if i := uint64(id); i < uint64(len(p.frames)) {
		return p.frames[i]
	}
	return nil
}

// Capacity returns the maximum number of resident pages.
func (p *Pool) Capacity() int { return p.capacity }

// Len returns the current number of resident pages.
func (p *Pool) Len() int { return p.resident }

// Contains reports residency without touching replacement state.
func (p *Pool) Contains(id disk.PageID) bool {
	return p.lookup(id) != nil
}

// Get returns the page, faulting it in from disk on a miss. A miss charges
// one disk read; if the pool is full, a victim is evicted first (one disk
// write if it was dirty).
func (p *Pool) Get(id disk.PageID) (*disk.Page, error) {
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

// GetIfResident returns the page only if it is already resident,
// counting neither a hit nor a miss.
func (p *Pool) GetIfResident(id disk.PageID) (*disk.Page, bool) {
	f := p.lookup(id)
	if f == nil {
		return nil, false
	}
	return f.page, true
}

// Install places a freshly allocated page into the pool without a disk
// read (there is nothing to read yet); it is immediately dirty. Used for
// creation-order placement of new objects.
func (p *Pool) Install(pg *disk.Page) error {
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
	if f := p.lookup(id); f != nil {
		p.setDirty(f)
	}
}

// setDirty flags a resident frame dirty, keeping the dirty count.
func (p *Pool) setDirty(f *frame) {
	if !f.dirty {
		f.dirty = true
		p.dirty++
	}
}

// FlushAll writes every dirty resident page to disk (commit), in ring order
// from the front, so which pages a failed flush left dirty is repeatable.
// It stops at the last dirty frame: a commit after one update visits the
// frames in front of that page, not the whole pool.
func (p *Pool) FlushAll() error {
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
	if f := p.lookup(id); f != nil {
		p.remove(f)
	}
}

// DropAll empties the pool without any write-back. It simulates a cache
// cold start (e.g. system restart between benchmark phases).
func (p *Pool) DropAll() {
	for f := p.sentinel.next; f != p.sentinel; f = f.next {
		p.frames[f.page.ID] = nil
	}
	p.resident = 0
	p.dirty = 0
	p.sentinel.prev, p.sentinel.next = p.sentinel, p.sentinel
}

// Resize changes the capacity, evicting pages if it shrinks.
func (p *Pool) Resize(capacity int) error {
	if capacity < 1 {
		return ErrZeroCapacity
	}
	p.capacity = capacity
	for p.resident > p.capacity {
		if err := p.evictOne(); err != nil {
			return err
		}
	}
	return nil
}

// Stats returns a snapshot of the pool counters.
func (p *Pool) Stats() Stats { return p.stats }

// ResetStats zeroes the pool counters.
func (p *Pool) ResetStats() { p.stats = Stats{} }

// ResidentPages returns ids of all resident pages in recency order, most
// recently used first.
func (p *Pool) ResidentPages() []disk.PageID {
	ids := make([]disk.PageID, 0, p.resident)
	for f := p.sentinel.next; f != p.sentinel; f = f.next {
		ids = append(ids, f.page.ID)
	}
	return ids
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
