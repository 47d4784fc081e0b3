package store

import (
	"fmt"
	"sync"

	"ocb/internal/backend"
	"ocb/internal/ordindex"
)

// This file implements the backend.Ranger capability on the paged store.
// The object table knows no attribute keys, so the ordered view is an
// ordindex.Index — the B+tree the btree driver is made of — beside it:
// built once, from the table, on the first ordered call (Scan, Seek,
// SetKey, ScanKey) and updated in place by Create, Delete and SetKey from
// then on. A store that never receives an ordered call never allocates it.
//
// Lock order: s.mu (shared) → idx.mu → tableMu; no code path acquires
// idx.mu while holding tableMu, so the build may walk the table under it.

// indexFanout is the index's node width: 128 sixteen-byte entries fill a
// 2 KB allocation size class exactly.
const indexFanout = 128

// rangerIndex is the ordered-index state embedded in Store. Ordered reads
// share mu; index updates and the build exclude them.
type rangerIndex struct {
	mu   sync.RWMutex
	tree *ordindex.Index // nil until the first ordered call
}

// noteCreate indexes an object. The insert is insert-if-absent: the
// build may already have seen the object's directory entry.
func (ix *rangerIndex) noteCreate(oid OID) {
	ix.mu.Lock()
	if ix.tree != nil {
		ix.tree.Insert(oid, 0)
	}
	ix.mu.Unlock()
}

// noteDelete unindexes an object and its attribute key.
func (ix *rangerIndex) noteDelete(oid OID) {
	ix.mu.Lock()
	if ix.tree != nil {
		ix.tree.Delete(oid)
	}
	ix.mu.Unlock()
}

// lockIndex returns the index with idx.mu held exclusively, building it
// if this is the first ordered call — the table walk is in OID order, so
// the build takes the append path and packs the leaves. Caller holds s.mu
// (shared).
func (s *Store) lockIndex() *ordindex.Index {
	ix := &s.idx
	ix.mu.Lock()
	if ix.tree == nil {
		tree := ordindex.New(indexFanout, false)
		_ = s.forEachLoc(func(oid OID, _ loc) error {
			tree.Insert(oid, 0)
			return nil
		})
		ix.tree = tree
	}
	return ix.tree
}

// rlockIndex returns the built index with idx.mu held shared. Caller
// holds s.mu (shared), so Restore cannot drop the index in between.
func (s *Store) rlockIndex() *ordindex.Index {
	ix := &s.idx
	ix.mu.RLock()
	for ix.tree == nil {
		ix.mu.RUnlock()
		s.lockIndex()
		ix.mu.Unlock()
		ix.mu.RLock()
	}
	return ix.tree
}

// Scan implements backend.Ranger: live OIDs in [lo, hi] in OID order.
// Index reads charge no I/O; callers fault the results through
// Access/AccessBatch.
//
//ocblint:allocfree
func (s *Store) Scan(lo, hi OID, limit int, desc bool, dst []OID) ([]OID, error) {
	s.mu.RLock()
	dst = s.rlockIndex().Scan(lo, hi, limit, desc, dst)
	s.idx.mu.RUnlock()
	s.mu.RUnlock()
	return dst, nil
}

// Seek implements backend.Ranger: the first live OID >= oid (<= when
// desc), or NilOID, false when none.
//
//ocblint:allocfree
func (s *Store) Seek(oid OID, desc bool) (OID, bool) {
	s.mu.RLock()
	found, ok := s.rlockIndex().Seek(oid, desc)
	s.idx.mu.RUnlock()
	s.mu.RUnlock()
	return found, ok
}

// SetKey implements backend.Ranger: (re)index the object under an integer
// attribute key.
func (s *Store) SetKey(oid OID, key int64) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	tree := s.lockIndex()
	defer s.idx.mu.Unlock()
	if _, ok := s.lookup(oid); !ok || !tree.SetKey(oid, key) {
		return fmt.Errorf("%w: %d", ErrNoSuchObject, oid)
	}
	return nil
}

// ScanKey implements backend.Ranger: keyed live OIDs with attribute key
// in [lo, hi], ordered by (key, OID).
//
//ocblint:allocfree
func (s *Store) ScanKey(lo, hi int64, limit int, dst []OID) ([]OID, error) {
	s.mu.RLock()
	dst = s.rlockIndex().ScanKey(lo, hi, limit, dst)
	s.idx.mu.RUnlock()
	s.mu.RUnlock()
	return dst, nil
}

var _ backend.Ranger = (*Store)(nil)
