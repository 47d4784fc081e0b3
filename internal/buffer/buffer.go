// Package buffer implements the main-memory page cache between the object
// store and the simulated disk.
//
// The paper's testbed faulted 4 KB pages through SunOS virtual memory into
// 8 MB of RAM (Texas is a virtual-memory-mapped store). This pool models the
// same behaviour explicitly: a bounded set of resident page frames, a
// replacement policy, and exact hit/miss/eviction accounting. A miss charges
// one disk read; evicting a dirty victim charges one disk write — exactly
// the I/Os OCB reports.
//
// Three classic replacement policies are provided (LRU, FIFO, Clock) so the
// benchmark can explore "optimal hardware configuration" questions (§2 of
// the paper) such as buffer geometry sensitivity.
package buffer

import (
	"errors"
	"fmt"

	"ocb/internal/disk"
)

// Policy selects the page replacement algorithm.
type Policy int

// Replacement policies.
const (
	LRU Policy = iota
	FIFO
	Clock
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case LRU:
		return "lru"
	case FIFO:
		return "fifo"
	case Clock:
		return "clock"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ParsePolicy converts a name to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "lru", "":
		return LRU, nil
	case "fifo":
		return FIFO, nil
	case "clock":
		return Clock, nil
	default:
		return 0, fmt.Errorf("buffer: unknown replacement policy %q", s)
	}
}

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

// frame is a resident page plus its replacement bookkeeping. Frames form a
// circular doubly-linked list around a sentinel; LRU keeps most-recently
// used at the front, FIFO inserts at the front and never reorders, Clock
// sweeps the ring with a hand and reference bits.
type frame struct {
	page       *disk.Page
	dirty      bool
	ref        bool
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
	policy   Policy
	shift    uint     // frames index = id >> shift (log2 of the Sharded shard count)
	frames   []*frame // nil = not resident
	resident int      // non-nil entries of frames
	sentinel *frame   // circular list anchor
	hand     *frame   // clock hand; nil when list empty
	spare    *frame   // the last victim, reused by the next admit
	stats    Stats
}

// New returns a pool over d holding at most capacity pages.
func New(d *disk.Disk, capacity int, policy Policy) (*Pool, error) {
	return newPool(d, capacity, policy, 0)
}

// newPool is New for one of 1<<shift sub-pools of a Sharded: the ids it is
// handed agree in their low shift bits, so id >> shift indexes them densely.
func newPool(d *disk.Disk, capacity int, policy Policy, shift uint) (*Pool, error) {
	if capacity < 1 {
		return nil, ErrZeroCapacity
	}
	s := &frame{}
	s.prev, s.next = s, s
	return &Pool{
		d:        d,
		capacity: capacity,
		policy:   policy,
		shift:    shift,
		sentinel: s,
	}, nil
}

// lookup returns id's frame, nil when the page is not resident.
func (p *Pool) lookup(id disk.PageID) *frame {
	if i := uint64(id >> p.shift); i < uint64(len(p.frames)) {
		return p.frames[i]
	}
	return nil
}

// Capacity returns the maximum number of resident pages.
func (p *Pool) Capacity() int { return p.capacity }

// Len returns the current number of resident pages.
func (p *Pool) Len() int { return p.resident }

// Policy returns the replacement policy.
func (p *Pool) Policy() Policy { return p.policy }

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
		f.dirty = true
		p.touch(f)
		return nil
	}
	return p.admit(pg, true)
}

// MarkDirty flags a resident page as modified. It is a no-op for
// non-resident pages.
func (p *Pool) MarkDirty(id disk.PageID) {
	if f := p.lookup(id); f != nil {
		f.dirty = true
	}
}

// FlushAll writes every dirty resident page to disk (commit), in ring order
// from the front, so which pages a failed flush left dirty is repeatable.
func (p *Pool) FlushAll() error {
	for f := p.sentinel.next; f != p.sentinel; f = f.next {
		if !f.dirty {
			continue
		}
		if err := p.d.Write(f.page); err != nil {
			return err
		}
		f.dirty = false
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
		p.frames[f.page.ID>>p.shift] = nil
	}
	p.resident = 0
	p.sentinel.prev, p.sentinel.next = p.sentinel, p.sentinel
	p.hand = nil
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

// ResidentPages returns ids of all resident pages in ring order from the
// front (for LRU, most recently used first).
func (p *Pool) ResidentPages() []disk.PageID {
	ids := make([]disk.PageID, 0, p.resident)
	for f := p.sentinel.next; f != p.sentinel; f = f.next {
		ids = append(ids, f.page.ID)
	}
	return ids
}

// touch applies the policy's hit behaviour.
func (p *Pool) touch(f *frame) {
	switch p.policy {
	case LRU:
		p.unlink(f)
		p.pushFront(f)
	case FIFO:
		// no movement on hit
	case Clock:
		f.ref = true
	}
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
	*f = frame{page: pg, dirty: dirty, ref: true}
	p.pushFront(f)
	i := int(pg.ID >> p.shift)
	if n := i + 1 - len(p.frames); n > 0 {
		p.frames = append(p.frames, make([]*frame, n)...)
	}
	p.frames[i] = f
	p.resident++
	if p.hand == nil {
		p.hand = f
	}
	return nil
}

// evictOne removes one victim per the policy, writing it back if dirty.
func (p *Pool) evictOne() error {
	var victim *frame
	switch p.policy {
	case LRU, FIFO:
		victim = p.sentinel.prev // back of the list
		if victim == p.sentinel {
			return errors.New("buffer: evict on empty pool")
		}
	case Clock:
		if p.hand == nil {
			return errors.New("buffer: evict on empty pool")
		}
		for p.hand.ref {
			p.hand.ref = false
			p.hand = p.nextFrame(p.hand)
		}
		victim = p.hand
		p.hand = p.nextFrame(p.hand)
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
	p.frames[f.page.ID>>p.shift] = nil
	p.resident--
}

// pushFront inserts f right after the sentinel.
func (p *Pool) pushFront(f *frame) {
	f.next = p.sentinel.next
	f.prev = p.sentinel
	p.sentinel.next.prev = f
	p.sentinel.next = f
}

// unlink removes f from the ring, fixing the clock hand if needed.
func (p *Pool) unlink(f *frame) {
	if p.hand == f {
		p.hand = p.nextFrame(f)
		if p.hand == f { // f was the only frame
			p.hand = nil
		}
	}
	f.prev.next = f.next
	f.next.prev = f.prev
	f.prev, f.next = nil, nil
}

// nextFrame advances around the ring, skipping the sentinel.
func (p *Pool) nextFrame(f *frame) *frame {
	n := f.next
	if n == p.sentinel {
		n = n.next
	}
	return n
}
