// Package store implements the persistent object store underneath the
// benchmarks — the role Texas (Singhal, Kakkad & Wilson, POS 1992) plays in
// the OCB paper's experiments.
//
// Texas is a virtual-memory-mapped persistent heap for C++: objects live in
// 4 KB pages; touching a non-resident object faults its whole page into
// memory, swizzling pointers on the way. What OCB measures through Texas is
// page-grain I/O, so that is what this store models exactly:
//
//   - an object table mapping OIDs to pages,
//   - creation-order placement (new objects fill the current page, exactly
//     like allocation in a persistent heap),
//   - Access(oid), which faults the owning page through the buffer pool,
//   - Relocate, the physical-reorganization primitive clustering policies
//     use, with its I/O cost charged to the clustering overhead class.
//
// Texas leaves the residency check to the MMU. Here the three lookups of a
// fault — object table, buffer.Pool frame table, disk page catalogue — are
// arrays indexed by the id, which OIDs and page ids allow because both are
// issued densely from 1 and never reused: a bounds check and a load each,
// so the response time beside the I/O count is not mostly hashing. The
// object table holds its entries by value, 16 bytes per OID ever issued,
// so a one-page object resolves to its page with one load and costs no
// heap object of its own; the frame table and the catalogue cost 8 bytes
// per page id ever issued.
//
// # Concurrency
//
// The store is safe for concurrent use by multiple benchmark clients, with
// one lock per structure:
//
//   - A structural read/write mutex. Per-object operations (Create, Access,
//     Update, Delete, lookups, Stats) only share-lock it; stop-the-world
//     operations — Relocate, Commit, DropCache, Image, Layout,
//     CheckIntegrity, ResetStats — take it exclusively, so a
//     physical reorganization never observes a half-applied mutation.
//   - The OID→location table is one slice of 16-byte entries indexed by
//     the OID (OIDs are issued densely from 1 and never reused) behind one
//     mutex; readers get copies of entries.
//   - The buffer pool is one exact-LRU buffer.Pool of BufferPages frames
//     behind its own mutex, so the I/O count is that of one buffer
//     whatever CLIENTN is; all slot-directory edits happen under the pool
//     lock.
//   - Creation-order placement (the shared fill page) serializes creators
//     and deleters on one placement mutex; accessors are unaffected.
//   - Global counters (objects accessed, disk I/O) are atomic.
//
// Every Access, AccessBatch, Update and Delete goes through the one pool
// lock, so splitting the table lock could add no parallelism.
package store

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"ocb/internal/backend"
	"ocb/internal/buffer"
	"ocb/internal/disk"
)

// OID identifies a stored object. It aliases backend.OID so a *Store
// satisfies the backend.Backend contract directly — the "paged" driver is
// this store with zero wrapping, which keeps single-client measurements
// bit-identical to the pre-interface implementation.
type OID = backend.OID

// NilOID is the null object reference.
const NilOID = backend.NilOID

// ObjectHeaderSize is the per-object on-disk overhead (oid + class tag +
// reference count words), modeled after persistent C++ object headers.
const ObjectHeaderSize = backend.ObjectHeaderSize

// Errors returned by the store — the backend protocol's sentinels, so
// errors.Is works identically through the interface and the concrete type.
var (
	ErrNoSuchObject   = backend.ErrNoSuchObject
	ErrObjectTooLarge = backend.ErrObjectTooLarge
	ErrBadSize        = backend.ErrBadSize
)

// Config parameterizes a store. Zero values select the paper's testbed
// geometry: 4 KB pages and an 8 MB buffer's worth of frames.
type Config struct {
	// PageSize in bytes; default disk.DefaultPageSize (4096).
	PageSize int
	// BufferPages is the pool capacity in frames; default 512.
	// (The testbed had 8 MB of RAM, but SunOS, Texas's own structures and
	// the benchmark program consume most of it; 512 frames = 2 MB of page
	// cache reproduces the paper's cache-pressure regime for the default
	// 20000-object database.)
	BufferPages int
}

func (c Config) withDefaults() (Config, error) {
	if c.PageSize < 0 {
		return c, fmt.Errorf("store: negative page size %d", c.PageSize)
	}
	if c.BufferPages < 0 {
		return c, fmt.Errorf("store: negative buffer size %d", c.BufferPages)
	}
	if c.PageSize == 0 {
		c.PageSize = disk.DefaultPageSize
	}
	if c.BufferPages == 0 {
		c.BufferPages = 512
	}
	return c, nil
}

// Stats is a snapshot of every counter the benchmarks report (the
// backend-protocol struct; the disk and pool sub-structs are live here).
type Stats = backend.Stats

// RelocStats reports the cost of one Relocate call.
type RelocStats = backend.RelocStats

// Store is a paged persistent object store with exact I/O accounting.
type Store struct {
	// mu is the structural lock: per-object operations share it, physical
	// reorganization and snapshotting exclude everything.
	mu   sync.RWMutex
	disk *disk.Disk
	pool *buffer.Pool

	// tableMu guards the object table: table[oid] is the location of a
	// live object (home 0 = never created here, or deleted), 16 bytes per
	// OID ever issued. Only setLoc grows it, and only for OIDs the store
	// issued itself. Relocate, holding s.mu exclusively, edits entries in
	// place without it.
	tableMu sync.Mutex
	table   []loc
	live    int // entries of table with a home page

	// placeMu serializes creation-order placement (the fill page) and
	// page emptying on delete.
	placeMu sync.Mutex
	fill    *disk.Page // current creation-order fill target

	next            atomic.Uint64 // next OID to issue
	objectsAccessed atomic.Uint64

	// idx is the ordered-index state backing the Ranger capability: the
	// OID and attribute-key trees, built on the first ordered call and
	// maintained in ranger.go. idx.mu nests inside s.mu (shared) and
	// outside tableMu; the build takes them in that order.
	idx rangerIndex

	// scratch pools AccessBatch's per-call working buffers so the batched
	// fault path allocates nothing in steady state.
	scratch sync.Pool
}

// accessScratch is AccessBatch's reusable working state.
type accessScratch struct {
	pages  []disk.PageID
	owners []int32 // owners[j] = index into the oid batch owning pages[j]
}

// loc is one object table entry, held by value. An ordinary object lives
// on its home page alone; a large object (size > page size) spans a run of
// dedicated pages, which never share pages with other objects, and only it
// carries that run.
type loc struct {
	home disk.PageID    // the first (directory) page; 0 = no object
	size int32          // bytes, header included
	run  *[]disk.PageID // a large object's whole page run, home first; nil otherwise
}

// maxObjectSize bounds an object's size, header included, to what a
// table entry holds.
const maxObjectSize = math.MaxInt32

// pages returns the object's page run without copying or allocating: the
// shared run of a large object, which callers must not modify, or the home
// page stored into the caller's one-element buffer.
func (l loc) pages(one *[1]disk.PageID) []disk.PageID {
	if l.run != nil {
		return *l.run
	}
	one[0] = l.home
	return one[:]
}

// checkRun reports an object whose size disagrees with the n pages it
// spans: at least the header, one page up to pageSize, ⌈size/pageSize⌉
// pages above it.
func checkRun(oid OID, size, n, pageSize int) error {
	if size < ObjectHeaderSize || size > maxObjectSize {
		return fmt.Errorf("object %d has size %d", oid, size)
	}
	want := 1
	if size > pageSize {
		want = (size + pageSize - 1) / pageSize
	}
	if n != want {
		return fmt.Errorf("object %d of %d bytes spans %d pages, want %d", oid, size, n, want)
	}
	return nil
}

// Open creates an empty store.
func Open(cfg Config) (*Store, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	d := disk.New(cfg.PageSize)
	p, err := buffer.New(d, cfg.BufferPages)
	if err != nil {
		return nil, err
	}
	s := &Store{
		disk: d,
		pool: p,
	}
	s.next.Store(1)
	return s, nil
}

// MustOpen is Open for known-good configurations; it panics on error.
func MustOpen(cfg Config) *Store {
	s, err := Open(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Disk exposes the underlying device (for stats and fault injection).
func (s *Store) Disk() *disk.Disk { return s.disk }

// Pool exposes the buffer pool (for stats and geometry experiments).
func (s *Store) Pool() *buffer.Pool { return s.pool }

// PageSize returns the disk page size.
func (s *Store) PageSize() int { return s.disk.PageSize() }

// get returns a copy of oid's location, the zero loc when the OID is not
// live or past the end of the table; caller holds tableMu.
func (s *Store) get(oid OID) loc {
	if i := uint64(oid); i < uint64(len(s.table)) {
		return s.table[i]
	}
	return loc{}
}

// lookup returns a copy of the location of an OID.
func (s *Store) lookup(oid OID) (loc, bool) {
	s.tableMu.Lock()
	l := s.get(oid)
	s.tableMu.Unlock()
	return l, l.home != 0
}

// setLoc installs a location, growing the table to reach the OID's slot.
// Callers pass only OIDs below s.next.
func (s *Store) setLoc(oid OID, l loc) {
	i := int(oid)
	s.tableMu.Lock()
	if n := i + 1 - len(s.table); n > 0 {
		s.table = append(s.table, make([]loc, n)...)
	}
	if s.table[i].home == 0 {
		s.live++
	}
	s.table[i] = l
	s.tableMu.Unlock()
}

// takeLoc removes and returns a location; a second concurrent take of the
// same OID fails, which is what makes Delete linearizable.
func (s *Store) takeLoc(oid OID) (loc, bool) {
	s.tableMu.Lock()
	l := s.get(oid)
	if l.home != 0 {
		s.table[oid] = loc{}
		s.live--
	}
	s.tableMu.Unlock()
	return l, l.home != 0
}

// forEachLoc visits every table entry in ascending OID order under
// tableMu. fn must not call back into the table.
func (s *Store) forEachLoc(fn func(OID, loc) error) error {
	s.tableMu.Lock()
	defer s.tableMu.Unlock()
	for oid, l := range s.table {
		if l.home == 0 {
			continue
		}
		if err := fn(OID(oid), l); err != nil {
			return err
		}
	}
	return nil
}

// Create allocates a new object of the given payload size (header added
// internally) placed in creation order, returning its OID. Objects larger
// than a page span a run of dedicated pages (Texas maps large objects onto
// page runs the same way); accessing such an object faults every page of
// the run. Creators (and deleters) serialize on the placement lock;
// concurrent accessors are unaffected.
func (s *Store) Create(payloadSize int) (OID, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if payloadSize < 0 {
		return NilOID, ErrBadSize
	}
	if payloadSize > maxObjectSize-ObjectHeaderSize {
		return NilOID, fmt.Errorf("%w: %d bytes", ErrObjectTooLarge, payloadSize)
	}
	size := payloadSize + ObjectHeaderSize
	oid := OID(s.next.Add(1) - 1)
	if size > s.disk.PageSize() {
		pages, err := s.placeLarge(oid, size)
		if err != nil {
			return NilOID, err
		}
		s.setLoc(oid, loc{home: pages[0], size: int32(size), run: &pages})
		s.idx.noteCreate(oid)
		return oid, nil
	}
	if err := s.place(oid, size); err != nil {
		return NilOID, err
	}
	s.idx.noteCreate(oid)
	return oid, nil
}

// placeLarge allocates the dedicated page run of a large object and
// installs it. The pages are private until the table entry appears, so no
// further locking is needed.
func (s *Store) placeLarge(oid OID, size int) ([]disk.PageID, error) {
	pageSize := s.disk.PageSize()
	var pages []disk.PageID
	for remaining := size; remaining > 0; remaining -= pageSize {
		chunk := remaining
		if chunk > pageSize {
			chunk = pageSize
		}
		pg := s.disk.Allocate()
		if !pg.Add(uint64(oid), chunk, pageSize) {
			return nil, fmt.Errorf("%w: %d bytes", ErrObjectTooLarge, size)
		}
		if err := s.pool.Install(pg); err != nil {
			return nil, err
		}
		pages = append(pages, pg.ID)
	}
	return pages, nil
}

// place appends the object to the current fill page, starting a new page
// when it does not fit. Caller holds s.mu (shared); placeMu serializes the
// fill page, and the slot edit itself happens under the pool lock so it
// cannot race a concurrent eviction or delete.
func (s *Store) place(oid OID, size int) error {
	s.placeMu.Lock()
	defer s.placeMu.Unlock()
	for {
		if s.fill == nil {
			pg := s.disk.Allocate()
			// The page is private until installed: no table entry names it.
			if !pg.Add(uint64(oid), size, s.disk.PageSize()) {
				return fmt.Errorf("%w: %d bytes", ErrObjectTooLarge, size)
			}
			if err := s.pool.Install(pg); err != nil {
				return err
			}
			s.fill = pg
			s.setLoc(oid, loc{home: pg.ID, size: int32(size)})
			return nil
		}
		added := false
		// UpdateNoFault edits an evicted fill page in place without
		// re-reading it, exactly as the original single-mutex store did —
		// creation placement charges no I/O beyond the initial install.
		err := s.pool.UpdateNoFault(s.fill.ID, func(pg *disk.Page) bool {
			added = pg.Add(uint64(oid), size, s.disk.PageSize())
			return added
		})
		if err != nil {
			return err
		}
		if added {
			s.setLoc(oid, loc{home: s.fill.ID, size: int32(size)})
			return nil
		}
		s.fill = nil // page full; start a new one
	}
}

// faultErr translates a page-fault failure observed while touching oid's
// page run: if the object vanished mid-operation (a concurrent Delete won
// the race and freed the page), the caller sees ErrNoSuchObject, exactly
// as if the delete had completed first; any other failure passes through.
func (s *Store) faultErr(oid OID, err error) error {
	if errors.Is(err, disk.ErrNoSuchPage) {
		if _, ok := s.lookup(oid); !ok {
			return fmt.Errorf("%w: %d", ErrNoSuchObject, oid)
		}
	}
	return err
}

// Access faults the object's page into memory (the analogue of
// dereferencing a swizzled pointer in Texas) and counts one object access.
func (s *Store) Access(oid OID) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	l, ok := s.lookup(oid)
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoSuchObject, oid)
	}
	var one [1]disk.PageID
	for _, pg := range l.pages(&one) {
		if _, err := s.pool.Get(pg); err != nil {
			return s.faultErr(oid, err)
		}
	}
	s.objectsAccessed.Add(1)
	return nil
}

// AccessBatch faults a group of objects in order, charging exactly the
// faults, counters and replacement decisions the equivalent sequence of
// Access calls would — it is the batched fast path traversal levels and
// scans use. The saving is in locking, not in I/O: the structural lock is
// taken once for the whole batch, the page run resolves under one table
// lock acquisition with one entry load per object, and the page faults are
// issued through the pool's batched getter under a single pool lock
// acquisition. It returns how many objects of the batch were fully
// accessed; on error the count covers the prefix that completed, exactly
// as sequential Access calls would have.
func (s *Store) AccessBatch(oids []OID) (int, error) {
	if len(oids) == 0 {
		return 0, nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	sc, _ := s.scratch.Get().(*accessScratch)
	if sc == nil {
		sc = &accessScratch{}
	}
	defer s.scratch.Put(sc)

	// Assemble the batch's page run in access order under one table lock
	// acquisition. A missing object truncates the batch — everything
	// before it is still faulted, as the equivalent Access sequence would
	// have done before erring.
	pages, owners := sc.pages[:0], sc.owners[:0]
	missAt := -1
	s.tableMu.Lock()
	for i, oid := range oids {
		l := s.get(oid)
		if l.home == 0 {
			missAt = i
			break
		}
		if l.run == nil {
			pages = append(pages, l.home)
			owners = append(owners, int32(i))
			continue
		}
		for _, pg := range *l.run {
			pages = append(pages, pg)
			owners = append(owners, int32(i))
		}
	}
	s.tableMu.Unlock()
	sc.pages, sc.owners = pages, owners

	k, ferr := s.pool.GetBatch(pages)
	if ferr != nil {
		// Objects strictly before the failing page's owner completed their
		// whole page run (pages are grouped per object in order).
		n := int(owners[k])
		s.objectsAccessed.Add(uint64(n))
		return n, s.faultErr(oids[owners[k]], ferr)
	}
	n := len(oids)
	if missAt >= 0 {
		n = missAt
	}
	s.objectsAccessed.Add(uint64(n))
	if missAt >= 0 {
		return n, fmt.Errorf("%w: %d", ErrNoSuchObject, oids[missAt])
	}
	return n, nil
}

// Update is Access plus marking the page dirty (an in-place modification).
func (s *Store) Update(oid OID) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	l, ok := s.lookup(oid)
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoSuchObject, oid)
	}
	var one [1]disk.PageID
	for _, pg := range l.pages(&one) {
		if err := s.pool.Update(pg, func(*disk.Page) bool { return true }); err != nil {
			return s.faultErr(oid, err)
		}
	}
	s.objectsAccessed.Add(1)
	return nil
}

// Delete removes an object; its page is read (to be updated), shrunk and
// marked dirty. An emptied page is freed. The table entry disappears
// first, so a concurrent Access of the same OID either completes before
// the delete or observes ErrNoSuchObject — an OID never resurrects. If
// the first page fault fails (fault injection), the table entry is
// reinstated and the object stays fully intact, indexed and retriable (the
// ordered index drops it only once that fault succeeded); a failure
// partway through a large object's page run leaves the object deleted
// with its remaining pages unreclaimed (the same torn state a mid-delete
// crash leaves on a real device).
func (s *Store) Delete(oid OID) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	l, ok := s.takeLoc(oid)
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoSuchObject, oid)
	}
	s.placeMu.Lock()
	defer s.placeMu.Unlock()
	var one [1]disk.PageID
	for i, pid := range l.pages(&one) {
		fate, err := s.pool.Mutate(pid, func(pg *disk.Page) buffer.PageFate {
			pg.Remove(uint64(oid))
			if len(pg.Slots) == 0 {
				return buffer.Drop
			}
			return buffer.KeepDirty
		})
		if err != nil {
			if i == 0 {
				// Nothing was mutated yet: roll the delete back. The index
				// still holds the object and its key, unless its first-call
				// build ran while the table entry was out.
				s.setLoc(oid, l)
				s.idx.noteCreate(oid)
			}
			return err
		}
		if i == 0 {
			s.idx.noteDelete(oid) // past the rollback point: unindex
		}
		if fate == buffer.Drop {
			if s.fill != nil && s.fill.ID == pid {
				s.fill = nil
			}
			s.disk.Free(pid)
		}
	}
	return nil
}

// Exists reports whether the OID names a live object.
func (s *Store) Exists(oid OID) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.lookup(oid)
	return ok
}

// SizeOf returns the on-disk size of the object (header included).
func (s *Store) SizeOf(oid OID) (int, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	l, ok := s.lookup(oid)
	if !ok {
		return 0, false
	}
	return int(l.size), true
}

// PageOf returns the (first) page currently holding the object.
func (s *Store) PageOf(oid OID) (disk.PageID, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	l, ok := s.lookup(oid)
	if !ok {
		return 0, false
	}
	return l.home, true
}

// PagesOf returns the object's whole page run.
func (s *Store) PagesOf(oid OID) ([]disk.PageID, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	l, ok := s.lookup(oid)
	if !ok {
		return nil, false
	}
	var one [1]disk.PageID
	return append([]disk.PageID(nil), l.pages(&one)...), true
}

// NumObjects returns the number of live objects.
func (s *Store) NumObjects() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.tableMu.Lock()
	defer s.tableMu.Unlock()
	return s.live
}

// NumPages returns the number of allocated pages.
func (s *Store) NumPages() int { return s.disk.NumPages() }

// Commit flushes all dirty pages (transaction commit). Commit is a
// stop-the-world operation: it excludes every in-flight access so the
// flushed image is a consistent cut.
func (s *Store) Commit() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pool.FlushAll()
}

// DropCache empties the buffer pool without write-back, simulating a cold
// restart between benchmark phases.
func (s *Store) DropCache() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pool.DropAll()
	s.fill = nil
}

// SetIOClass routes subsequent disk I/O charges (transaction/clustering).
func (s *Store) SetIOClass(c disk.IOClass) { s.disk.SetClass(c) }

// DiskStats returns the disk I/O counters without touching any lock; it is
// the accessor transaction executors sample before and after every
// transaction.
func (s *Store) DiskStats() disk.Stats { return s.disk.Stats() }

// ObjectsAccessed returns the running object-access count.
func (s *Store) ObjectsAccessed() uint64 { return s.objectsAccessed.Load() }

// Stats returns a snapshot of all counters. Under concurrent load the
// counters are read one after another, each under its own lock or atomic,
// so the snapshot is additive rather than instantaneous; phase totals
// taken while clients are quiescent are exact.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.tableMu.Lock()
	n := s.live
	s.tableMu.Unlock()
	return Stats{
		Disk:            s.disk.Stats(),
		Pool:            s.pool.Stats(),
		ObjectsAccessed: s.objectsAccessed.Load(),
		Objects:         n,
		Pages:           s.disk.NumPages(),
	}
}

// ResetStats zeroes every counter (placement is untouched).
func (s *Store) ResetStats() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.disk.ResetStats()
	s.pool.ResetStats()
	s.objectsAccessed.Store(0)
}

// Relocate applies a clustering layout: each cluster's objects are placed
// contiguously, clusters packed into fresh pages in order. Objects not
// mentioned keep their current placement. The whole operation is charged to
// the clustering I/O class: one read per distinct source page, one write
// per source page that still holds objects afterwards, one write per new
// page. Affected pages are dropped from the buffer pool (reorganization
// happens "when the system is idle", §4.1 phase 5) and the operation
// excludes every concurrent access for its whole duration.
func (s *Store) Relocate(clusters [][]OID) (RelocStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()

	var st RelocStats
	prevClass := s.disk.Class()
	s.disk.SetClass(disk.Clustering)
	defer s.disk.SetClass(prevClass)

	// Deduplicate: an object may appear in several clustering units (DSTC
	// units can overlap); the first placement wins. Unit boundaries are
	// preserved so that a unit that fits a page is never split.
	moved := make(map[OID]bool)
	var order []OID
	var units [][]OID
	locs := make(map[OID]loc)
	for _, cl := range clusters {
		var unit []OID
		for _, oid := range cl {
			if oid == NilOID || moved[oid] {
				continue
			}
			l, ok := s.lookup(oid)
			if !ok {
				continue
			}
			moved[oid] = true
			locs[oid] = l
			order = append(order, oid)
			unit = append(unit, oid)
		}
		if len(unit) > 0 {
			units = append(units, unit)
		}
	}
	if len(order) == 0 {
		return st, nil
	}

	// Read every distinct source page once and detach the moved objects.
	srcPages := make(map[disk.PageID]*disk.Page)
	var one [1]disk.PageID
	for _, oid := range order {
		for _, pid := range locs[oid].pages(&one) {
			if _, ok := srcPages[pid]; !ok {
				pg, err := s.disk.Read(pid)
				if err != nil {
					return st, err
				}
				srcPages[pid] = pg
				st.PagesRead++
			}
			srcPages[pid].Remove(uint64(oid))
		}
	}

	// Write back or free the shrunken source pages.
	srcIDs := make([]disk.PageID, 0, len(srcPages))
	for id := range srcPages {
		srcIDs = append(srcIDs, id)
	}
	sort.Slice(srcIDs, func(i, j int) bool { return srcIDs[i] < srcIDs[j] })
	for _, id := range srcIDs {
		pg := srcPages[id]
		s.pool.Discard(id)
		if s.fill != nil && s.fill.ID == id {
			s.fill = nil
		}
		if len(pg.Slots) == 0 {
			s.disk.Free(id)
			st.PagesFreed++
			continue
		}
		if err := s.disk.Write(pg); err != nil {
			return st, err
		}
		st.PagesWritten++
	}

	// Lay the moved objects out contiguously, unit by unit. A unit small
	// enough for one page is never split across pages; larger units spill
	// over but stay contiguous.
	pageSize := s.disk.PageSize()
	var cur *disk.Page
	flush := func() error {
		if cur == nil {
			return nil
		}
		if err := s.disk.Write(cur); err != nil {
			return err
		}
		st.PagesWritten++
		st.NewPages++
		cur = nil
		return nil
	}
	for _, unit := range units {
		unitSize := 0
		for _, oid := range unit {
			unitSize += int(locs[oid].size)
		}
		if cur != nil && unitSize <= pageSize && cur.Free(pageSize) < unitSize {
			if err := flush(); err != nil {
				return st, err
			}
		}
		// The exclusive s.mu keeps every tableMu holder out, so entries
		// are edited in place.
		for _, oid := range unit {
			size := int(locs[oid].size)
			if size > pageSize {
				// Large objects keep dedicated page runs.
				if err := flush(); err != nil {
					return st, err
				}
				var pages []disk.PageID
				for remaining := size; remaining > 0; remaining -= pageSize {
					chunk := remaining
					if chunk > pageSize {
						chunk = pageSize
					}
					pg := s.disk.Allocate()
					pg.Add(uint64(oid), chunk, pageSize)
					if err := s.disk.Write(pg); err != nil {
						return st, err
					}
					st.PagesWritten++
					st.NewPages++
					pages = append(pages, pg.ID)
				}
				s.table[oid].home, s.table[oid].run = pages[0], &pages
				st.ObjectsMoved++
				continue
			}
			if cur == nil || !cur.Add(uint64(oid), size, pageSize) {
				if err := flush(); err != nil {
					return st, err
				}
				cur = s.disk.Allocate()
				if !cur.Add(uint64(oid), size, pageSize) {
					return st, fmt.Errorf("%w: object %d (%d bytes)", ErrObjectTooLarge, oid, size)
				}
			}
			s.table[oid].home = cur.ID
			st.ObjectsMoved++
		}
	}
	if err := flush(); err != nil {
		return st, err
	}
	return st, nil
}

// Layout returns, for every page, the ordered object ids it holds. Pages
// appear in ascending id order. Intended for inspection and tests; charges
// no I/O.
func (s *Store) Layout() map[disk.PageID][]OID {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[disk.PageID][]OID)
	for _, id := range s.disk.PageIDs() {
		pg, ok := s.disk.Peek(id)
		if !ok {
			continue
		}
		oids := make([]OID, 0, len(pg.Slots))
		for _, sl := range pg.Slots {
			oids = append(oids, OID(sl.Object))
		}
		out[id] = oids
	}
	return out
}
