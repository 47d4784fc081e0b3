// Package btree registers the "btree" backend: an in-memory B+tree store
// whose objects live in OID order, with a second tree over the integer
// attribute keys SetKey assigns — the index-backed driver that makes
// access-path choice a measurable axis. It is the natural Ranger backend:
// range scans and seeks walk the leaf chain directly instead of probing a
// hash directory per OID.
//
// The trees are internal/ordindex (see there for the split and delete
// policy); this package is the Backend shell around one: OID allocation,
// the stored size as each entry's value, counters and locking. Nodes are
// sized to the page geometry (fanout = PageSize / 24, a 16-byte composite
// key plus an 8-byte value per entry), so Stats.Pages counts index nodes
// the way a paged store counts disk pages. One store-wide RWMutex:
// lookups and scans share the read side, Create, Delete and SetKey take
// the write side, and the steady-state lookup path allocates nothing.
package btree

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"ocb/internal/backend"
	"ocb/internal/disk"
	"ocb/internal/ordindex"
)

// Name is the driver's registered name.
const Name = "btree"

func init() {
	backend.Register(Name, func(cfg backend.Config) (backend.Backend, error) {
		if err := backend.CheckOptions(Name, cfg.Options, "fanout"); err != nil {
			return nil, err
		}
		pageSize := cfg.PageSize
		if pageSize <= 0 {
			pageSize = disk.DefaultPageSize
		}
		fanout := pageSize / 24
		if v, ok := cfg.Options["fanout"]; ok {
			n, err := strconv.Atoi(v)
			if err != nil || n < ordindex.MinFanout {
				return nil, fmt.Errorf("backend %q: option fanout must be an integer >= %d, got %q", Name, ordindex.MinFanout, v)
			}
			fanout = n
		}
		return New(fanout), nil
	})
}

// Store is the B+tree backend: an ordered index whose OID tree carries
// each object's stored size.
type Store struct {
	mu  sync.RWMutex
	idx *ordindex.Index

	next            uint64 // last issued OID, under mu
	objectsAccessed atomic.Uint64
}

var (
	_ backend.Backend = (*Store)(nil)
	_ backend.Ranger  = (*Store)(nil)
	_ backend.Checker = (*Store)(nil)
)

// New returns an empty B+tree store; ordindex.MinFanout is the least fanout.
func New(fanout int) *Store {
	return &Store{idx: ordindex.New(fanout, true)}
}

// Create implements backend.Backend: sequential OIDs from 1, creation
// order; the append fast path makes this O(1) amortized.
func (s *Store) Create(payloadSize int) (backend.OID, error) {
	if payloadSize < 0 {
		return backend.NilOID, fmt.Errorf("%w: %d bytes", backend.ErrBadSize, payloadSize)
	}
	s.mu.Lock()
	s.next++
	oid := backend.OID(s.next)
	s.idx.Insert(oid, uint64(payloadSize+backend.ObjectHeaderSize))
	s.mu.Unlock()
	return oid, nil
}

// Access implements backend.Backend: one tree descent, no allocation.
//
//ocblint:allocfree
func (s *Store) Access(oid backend.OID) error {
	if !s.Exists(oid) {
		return fmt.Errorf("%w: %d", backend.ErrNoSuchObject, oid)
	}
	s.objectsAccessed.Add(1)
	return nil
}

// AccessBatch implements backend.Backend: one lock acquisition for the
// whole batch; a dead OID truncates it and the completed prefix count is
// returned.
//
//ocblint:allocfree
func (s *Store) AccessBatch(oids []backend.OID) (int, error) {
	if len(oids) == 0 {
		return 0, nil
	}
	s.mu.RLock()
	for i, oid := range oids {
		if _, ok := s.idx.Get(oid); !ok {
			s.mu.RUnlock()
			s.objectsAccessed.Add(uint64(i))
			return i, fmt.Errorf("%w: %d", backend.ErrNoSuchObject, oid)
		}
	}
	s.mu.RUnlock()
	s.objectsAccessed.Add(uint64(len(oids)))
	return len(oids), nil
}

// Update implements backend.Backend: an in-place modification of a
// memory-resident object is an access.
//
//ocblint:allocfree
func (s *Store) Update(oid backend.OID) error {
	return s.Access(oid)
}

// Delete implements backend.Backend: the entry leaves both trees; its
// OID never resurrects (the OID counter only moves forward).
func (s *Store) Delete(oid backend.OID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.idx.Delete(oid) {
		return fmt.Errorf("%w: %d", backend.ErrNoSuchObject, oid)
	}
	return nil
}

// Exists implements backend.Backend.
//
//ocblint:allocfree
func (s *Store) Exists(oid backend.OID) bool {
	_, ok := s.SizeOf(oid)
	return ok
}

// SizeOf implements backend.Backend.
//
//ocblint:allocfree
func (s *Store) SizeOf(oid backend.OID) (int, bool) {
	s.mu.RLock()
	sz, ok := s.idx.Get(oid)
	s.mu.RUnlock()
	return int(sz), ok
}

// Commit implements backend.Backend: memory is always "durable" here.
func (s *Store) Commit() error { return nil }

// DropCache implements backend.Backend: there is no volatile cache
// distinct from the store itself.
func (s *Store) DropCache() {}

// Stats implements backend.Backend. Pages counts allocated index nodes
// across both trees — the btree analogue of a paged store's page count.
func (s *Store) Stats() backend.Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return backend.Stats{
		ObjectsAccessed: s.objectsAccessed.Load(),
		Objects:         s.idx.Len(),
		Pages:           s.idx.Nodes(),
	}
}

// DiskStats implements backend.Backend: no disk, zero I/Os.
func (s *Store) DiskStats() disk.Stats { return disk.Stats{} }

// ResetStats implements backend.Backend.
func (s *Store) ResetStats() {
	s.objectsAccessed.Store(0)
}

// Scan implements backend.Ranger: live OIDs in [lo, hi] in OID order,
// walking the object tree's leaf chain.
func (s *Store) Scan(lo, hi backend.OID, limit int, desc bool, dst []backend.OID) ([]backend.OID, error) {
	s.mu.RLock()
	dst = s.idx.Scan(lo, hi, limit, desc, dst)
	s.mu.RUnlock()
	return dst, nil
}

// Seek implements backend.Ranger.
//
//ocblint:allocfree
func (s *Store) Seek(oid backend.OID, desc bool) (backend.OID, bool) {
	s.mu.RLock()
	found, ok := s.idx.Seek(oid, desc)
	s.mu.RUnlock()
	return found, ok
}

// SetKey implements backend.Ranger: (re)index the object under an integer
// attribute key.
func (s *Store) SetKey(oid backend.OID, k int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.idx.SetKey(oid, k) {
		return fmt.Errorf("%w: %d", backend.ErrNoSuchObject, oid)
	}
	return nil
}

// ScanKey implements backend.Ranger: keyed OIDs in attribute range
// [lo, hi], ordered by (key, OID).
func (s *Store) ScanKey(lo, hi int64, limit int, dst []backend.OID) ([]backend.OID, error) {
	s.mu.RLock()
	dst = s.idx.ScanKey(lo, hi, limit, dst)
	s.mu.RUnlock()
	return dst, nil
}

// CheckIntegrity implements backend.Checker.
func (s *Store) CheckIntegrity() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.idx.Check()
}
