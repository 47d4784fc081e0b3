// Package disk simulates the secondary storage device underneath the
// object store: a collection of fixed-size slotted pages with exact
// read/write I/O accounting.
//
// The OCB paper's experiments ran on a Sun SPARC/ELC whose disk was "set up
// with pages of 4 Kb"; the benchmark's headline metric is the number of page
// I/Os performed, split between I/Os needed to execute transactions and the
// clustering overhead (I/Os needed to re-cluster the database). This package
// reproduces exactly that accounting: every Read and Write is charged to the
// currently selected IOClass.
//
// The disk is a simulation — pages hold slot directories (object id + size)
// rather than real bytes, because OCB objects carry only a synthetic Filler
// payload whose single observable property is its size.
//
// Concurrency: the device is safe for concurrent use by many clients.
// Reading the page catalogue takes no lock: Read, Peek and Write's lookup
// are plain loads from fixed-size chunks that never move once published.
// Allocate, Free, Import and Write's install of a detached copy serialize
// on one mutex. All I/O counters are atomic, so concurrent benchmark
// clients never serialize on statistics updates.
package disk

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// DefaultPageSize matches the 4 KB pages of the paper's testbed.
const DefaultPageSize = 4096

// PageID identifies a disk page. Zero is never a valid page.
type PageID uint32

// IOClass selects which accounting bucket an I/O is charged to, mirroring
// OCB's distinction between transaction I/Os and clustering-overhead I/Os.
type IOClass int

const (
	// Transaction I/Os are those needed to execute the workload.
	Transaction IOClass = iota
	// Clustering I/Os are the overhead of reorganizing the database.
	Clustering
	numClasses
)

// String returns the class name.
func (c IOClass) String() string {
	switch c {
	case Transaction:
		return "transaction"
	case Clustering:
		return "clustering"
	default:
		return fmt.Sprintf("IOClass(%d)", int(c))
	}
}

// Op distinguishes read and write operations for the failure-injection hook.
type Op int

// I/O operations.
const (
	OpRead Op = iota
	OpWrite
)

// Stats counts I/Os per class.
type Stats struct {
	Reads  [numClasses]uint64
	Writes [numClasses]uint64
}

// TotalReads returns reads across all classes.
func (s Stats) TotalReads() uint64 { return s.Reads[Transaction] + s.Reads[Clustering] }

// TotalWrites returns writes across all classes.
func (s Stats) TotalWrites() uint64 { return s.Writes[Transaction] + s.Writes[Clustering] }

// Total returns all I/Os of every kind.
func (s Stats) Total() uint64 { return s.TotalReads() + s.TotalWrites() }

// TransactionIOs returns reads+writes charged to transactions.
func (s Stats) TransactionIOs() uint64 { return s.Reads[Transaction] + s.Writes[Transaction] }

// ClusteringIOs returns reads+writes charged to clustering overhead.
func (s Stats) ClusteringIOs() uint64 { return s.Reads[Clustering] + s.Writes[Clustering] }

// Sub returns s - t, counter-wise. Useful for deltas around a phase.
func (s Stats) Sub(t Stats) Stats {
	var r Stats
	for i := 0; i < int(numClasses); i++ {
		r.Reads[i] = s.Reads[i] - t.Reads[i]
		r.Writes[i] = s.Writes[i] - t.Writes[i]
	}
	return r
}

// Slot records one object resident on a page.
type Slot struct {
	Object uint64 // the OID, opaque to the disk
	Size   int    // bytes occupied, header included
}

// Page is a slotted disk page.
type Page struct {
	ID    PageID
	Used  int
	Slots []Slot
}

// Free returns the unused bytes given the disk's page size.
func (p *Page) Free(pageSize int) int { return pageSize - p.Used }

// Has reports whether the page holds object obj.
func (p *Page) Has(obj uint64) bool {
	for _, s := range p.Slots {
		if s.Object == obj {
			return true
		}
	}
	return false
}

// Add appends a slot if size bytes fit; it reports success.
func (p *Page) Add(obj uint64, size, pageSize int) bool {
	if p.Used+size > pageSize {
		return false
	}
	p.Slots = append(p.Slots, Slot{Object: obj, Size: size})
	p.Used += size
	return true
}

// Remove deletes the slot for obj, preserving slot order; it reports
// whether the object was present.
func (p *Page) Remove(obj uint64) bool {
	for i, s := range p.Slots {
		if s.Object == obj {
			p.Slots = append(p.Slots[:i], p.Slots[i+1:]...)
			p.Used -= s.Size
			return true
		}
	}
	return false
}

// Errors returned by the disk.
var (
	ErrNoSuchPage = errors.New("disk: no such page")
	ErrPageExists = errors.New("disk: page already exists")
)

// Disk is a simulated paged storage device. It is safe for concurrent use;
// catalogue reads take no lock and counters are atomic, so concurrent
// readers proceed in parallel.
//
// Page ids are issued densely from 1 and never reused, so the catalogue is
// indexed by id (slot 0 unused, nil = never issued or freed): 8 bytes per
// id ever issued, and a lookup is a bounds check and three loads, not a
// hash probe. It is cut into fixed-size chunks reached through a directory
// that Allocate only appends to, so a published slot never moves and
// readers need no lock.
type Disk struct {
	mu       sync.Mutex // serializes every catalogue store; guards live and next
	pageSize int
	dir      atomic.Pointer[[]*chunk] // chunk i holds ids [i*chunkSize, (i+1)*chunkSize)
	live     int                      // non-nil catalogue slots
	next     PageID

	reads  [numClasses]atomic.Uint64
	writes [numClasses]atomic.Uint64
	class  atomic.Int32

	// FailureHook, if set, is consulted before every I/O; a non-nil error
	// aborts the operation without charging it. Used for fault injection.
	// It is read without a lock, so set it only while the disk is
	// quiescent; with concurrent clients the hook itself must be safe for
	// concurrent use.
	FailureHook func(op Op, id PageID) error
}

const (
	chunkShift = 10 // a catalogue chunk holds 1024 slots, 8 KB
	chunkSize  = 1 << chunkShift
)

// chunk is one fixed-size run of catalogue slots.
type chunk [chunkSize]atomic.Pointer[Page]

// New returns an empty disk with the given page size
// (DefaultPageSize if pageSize <= 0).
func New(pageSize int) *Disk {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	d := &Disk{pageSize: pageSize, next: 1}
	d.dir.Store(new([]*chunk))
	return d
}

// PageSize returns the page size in bytes.
func (d *Disk) PageSize() int { return d.pageSize }

// slot returns id's catalogue slot, nil when no chunk covers id. Only
// Allocate and Import add chunks, so an id from outside can never size
// the catalogue.
func (d *Disk) slot(id PageID) *atomic.Pointer[Page] {
	dir := *d.dir.Load()
	if c := uint64(id >> chunkShift); c < uint64(len(dir)) {
		return &dir[c][id&(chunkSize-1)]
	}
	return nil
}

// Allocate creates a fresh empty page. Allocation itself charges no I/O;
// the page is charged when first written.
func (d *Disk) Allocate() *Page {
	d.mu.Lock()
	defer d.mu.Unlock()
	p := &Page{ID: d.next}
	d.next++
	if dir := *d.dir.Load(); int(p.ID>>chunkShift) == len(dir) {
		// Ids are issued in order, so at most one chunk is missing. The
		// append writes past the length every reader holds, or copies.
		dir = append(dir, new(chunk))
		d.dir.Store(&dir)
	}
	d.slot(p.ID).Store(p)
	d.live++
	return p
}

// Read fetches a page, charging one read I/O to the current class.
//
//ocblint:allocfree -- steady-state hot path
func (d *Disk) Read(id PageID) (*Page, error) {
	if hook := d.FailureHook; hook != nil {
		if err := hook(OpRead, id); err != nil {
			return nil, err
		}
	}
	p, ok := d.Peek(id)
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNoSuchPage, id)
	}
	d.reads[d.class.Load()].Add(1)
	return p, nil
}

// Write persists a page, charging one write I/O to the current class.
// The page must have been allocated on this disk.
func (d *Disk) Write(p *Page) error {
	if hook := d.FailureHook; hook != nil {
		if err := hook(OpWrite, p.ID); err != nil {
			return err
		}
	}
	cur, ok := d.Peek(p.ID)
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoSuchPage, p.ID)
	}
	if cur != p {
		// The caller holds a detached copy (physical reorganization paths);
		// install it as the canonical page.
		d.mu.Lock()
		if sl := d.slot(p.ID); sl.Load() != nil {
			sl.Store(p)
		}
		d.mu.Unlock()
	}
	d.writes[d.class.Load()].Add(1)
	return nil
}

// Peek returns a page without charging any I/O or taking any lock: the
// catalogue lookup that Read and Write are built on, also used by
// integrity checks and tests.
func (d *Disk) Peek(id PageID) (*Page, bool) {
	if sl := d.slot(id); sl != nil {
		p := sl.Load()
		return p, p != nil
	}
	return nil, false
}

// Free removes a page from the disk (no I/O charge; deallocation is a
// catalog operation). Freeing an unknown or already freed id is a no-op.
func (d *Disk) Free(id PageID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if sl := d.slot(id); sl != nil && sl.Swap(nil) != nil {
		d.live--
	}
}

// NumPages returns the number of allocated pages.
func (d *Disk) NumPages() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.live
}

// PageIDs returns all allocated page ids in ascending order.
func (d *Disk) PageIDs() []PageID {
	d.mu.Lock()
	defer d.mu.Unlock()
	ids := make([]PageID, 0, d.live)
	d.eachLocked(func(p *Page) { ids = append(ids, p.ID) })
	return ids
}

// eachLocked visits every live page in ascending id order; caller holds
// d.mu.
func (d *Disk) eachLocked(fn func(*Page)) {
	for _, c := range *d.dir.Load() {
		for i := range c {
			if p := c[i].Load(); p != nil {
				fn(p)
			}
		}
	}
}

// SetClass routes subsequent I/O charges to the given class.
func (d *Disk) SetClass(c IOClass) { d.class.Store(int32(c)) }

// Class returns the current I/O class.
func (d *Disk) Class() IOClass { return IOClass(d.class.Load()) }

// Stats returns a snapshot of the I/O counters. Under concurrent load the
// snapshot is a sum of atomic counters, not a single instant: counters read
// later may include I/Os issued after counters read earlier.
func (d *Disk) Stats() Stats {
	var s Stats
	for i := 0; i < int(numClasses); i++ {
		s.Reads[i] = d.reads[i].Load()
		s.Writes[i] = d.writes[i].Load()
	}
	return s
}

// ResetStats zeroes the I/O counters.
func (d *Disk) ResetStats() {
	for i := 0; i < int(numClasses); i++ {
		d.reads[i].Store(0)
		d.writes[i].Store(0)
	}
}
