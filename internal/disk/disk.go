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
// Concurrency: the device is safe for concurrent use by many clients. The
// page catalog is guarded by a read/write mutex (reads and writes of
// existing pages only share-lock it; allocation and deallocation take it
// exclusively), and all I/O counters are atomic, so concurrent benchmark
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
// page lookups take a shared lock and counters are atomic, so concurrent
// readers proceed in parallel.
//
// Page ids are issued densely from 1 and never reused, so the catalogue is
// a slice indexed by id (slot 0 unused, nil = freed): 8 bytes per id ever
// issued, and a lookup is a bounds check, not a hash probe.
type Disk struct {
	mu       sync.RWMutex // guards pages, live and next
	pageSize int
	pages    []*Page // indexed by PageID; len(pages) == next
	live     int     // non-nil entries of pages
	next     PageID

	reads  [numClasses]atomic.Uint64
	writes [numClasses]atomic.Uint64
	class  atomic.Int32

	// FailureHook, if set, is consulted before every I/O; a non-nil error
	// aborts the operation without charging it. Used for fault injection.
	// Set it only while the disk is quiescent; with concurrent clients the
	// hook itself must be safe for concurrent use.
	FailureHook func(op Op, id PageID) error
}

// New returns an empty disk with the given page size
// (DefaultPageSize if pageSize <= 0).
func New(pageSize int) *Disk {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	return &Disk{
		pageSize: pageSize,
		pages:    make([]*Page, 1),
		next:     1,
	}
}

// PageSize returns the page size in bytes.
func (d *Disk) PageSize() int { return d.pageSize }

// Allocate creates a fresh empty page. Allocation itself charges no I/O;
// the page is charged when first written.
func (d *Disk) Allocate() *Page {
	d.mu.Lock()
	defer d.mu.Unlock()
	p := &Page{ID: d.next}
	d.next++
	d.pages = append(d.pages, p)
	d.live++
	return p
}

// pageLocked returns the catalogue entry for id, nil when id was never
// issued or has been freed; caller holds d.mu. Only Allocate and Import
// size the catalogue, so an id from outside can never grow it.
func (d *Disk) pageLocked(id PageID) *Page {
	if uint64(id) >= uint64(len(d.pages)) {
		return nil
	}
	return d.pages[id]
}

// Read fetches a page, charging one read I/O to the current class.
func (d *Disk) Read(id PageID) (*Page, error) {
	d.mu.RLock()
	hook := d.FailureHook
	p := d.pageLocked(id)
	d.mu.RUnlock()
	if hook != nil {
		if err := hook(OpRead, id); err != nil {
			return nil, err
		}
	}
	if p == nil {
		return nil, fmt.Errorf("%w: %d", ErrNoSuchPage, id)
	}
	d.reads[d.class.Load()].Add(1)
	return p, nil
}

// Write persists a page, charging one write I/O to the current class.
// The page must have been allocated on this disk.
func (d *Disk) Write(p *Page) error {
	d.mu.RLock()
	hook := d.FailureHook
	cur := d.pageLocked(p.ID)
	d.mu.RUnlock()
	if hook != nil {
		if err := hook(OpWrite, p.ID); err != nil {
			return err
		}
	}
	if cur == nil {
		return fmt.Errorf("%w: %d", ErrNoSuchPage, p.ID)
	}
	if cur != p {
		// The caller holds a detached copy (physical reorganization paths);
		// install it as the canonical page.
		d.mu.Lock()
		if d.pageLocked(p.ID) != nil {
			d.pages[p.ID] = p
		}
		d.mu.Unlock()
	}
	d.writes[d.class.Load()].Add(1)
	return nil
}

// Peek returns a page without charging any I/O. It is intended for
// integrity checks and tests, not for the data path.
func (d *Disk) Peek(id PageID) (*Page, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	p := d.pageLocked(id)
	return p, p != nil
}

// Free removes a page from the disk (no I/O charge; deallocation is a
// catalog operation). Freeing an unknown or already freed id is a no-op.
func (d *Disk) Free(id PageID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.pageLocked(id) != nil {
		d.pages[id] = nil
		d.live--
	}
}

// NumPages returns the number of allocated pages.
func (d *Disk) NumPages() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.live
}

// PageIDs returns all allocated page ids in ascending order.
func (d *Disk) PageIDs() []PageID {
	d.mu.RLock()
	defer d.mu.RUnlock()
	ids := make([]PageID, 0, d.live)
	for _, p := range d.pages {
		if p != nil {
			ids = append(ids, p.ID)
		}
	}
	return ids
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
