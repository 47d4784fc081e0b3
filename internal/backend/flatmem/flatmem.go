// Package flatmem registers the "flatmem" backend: a flat in-memory heap
// with no pages, no buffer pool and no disk — the "infinitely fast I/O"
// control the paper's methodology needs to isolate clustering gains from
// raw I/O cost. Every workload runs unchanged against it; its I/O counters
// are identically zero, so whatever response-time structure remains is
// pure harness-and-navigation cost.
//
// The store keeps one slot per OID in a flat table with a per-object
// atomic access counter, so per-object heat is observable without any
// placement machinery. It implements only the core backend.Backend
// contract: no Placer, Relocator, IOClassifier or Snapshotter — which is
// exactly what makes it a useful conformance case for graceful capability
// degradation in the clustering experiments.
package flatmem

import (
	"fmt"
	"sync"
	"sync/atomic"

	"ocb/internal/backend"
	"ocb/internal/disk"
)

// Name is the driver's registered name.
const Name = "flatmem"

func init() {
	backend.Register(Name, func(cfg backend.Config) (backend.Backend, error) {
		// The flat heap has no pages or buffers to configure:
		// the typed geometry hints are meaningless here and ignored, and
		// any explicit option key is a user error worth naming.
		if err := backend.CheckOptions(Name, cfg.Options); err != nil {
			return nil, err
		}
		return New(), nil
	})
}

// slot is one object's state: its stored size (0 = dead or never issued)
// and its private access counter.
type slot struct {
	size     atomic.Int64
	accesses atomic.Uint64
}

// Mem is the flat heap. All per-object operations are lock-free on the
// slot table under a shared read lock; only table growth (Create past the
// current capacity) and the stats reset take the write lock.
type Mem struct {
	mu    sync.RWMutex
	slots []slot // indexed by OID; slot 0 (NilOID) is never used

	next            atomic.Uint64
	objectsAccessed atomic.Uint64
	live            atomic.Int64
}

var _ backend.Backend = (*Mem)(nil)

// New returns an empty flat heap.
func New() *Mem {
	m := &Mem{}
	m.next.Store(1)
	return m
}

// ensure grows the slot table to cover index idx.
func (m *Mem) ensure(idx int) {
	m.mu.RLock()
	n := len(m.slots)
	m.mu.RUnlock()
	if idx < n {
		return
	}
	m.mu.Lock()
	if idx >= len(m.slots) {
		grown := make([]slot, max(idx+1, 2*len(m.slots)+64))
		copy(grown, m.slots)
		m.slots = grown
	}
	m.mu.Unlock()
}

// Create implements backend.Backend: sequential OIDs from 1, creation
// order, header charged on top of the payload.
func (m *Mem) Create(payloadSize int) (backend.OID, error) {
	if payloadSize < 0 {
		return backend.NilOID, fmt.Errorf("%w: %d bytes", backend.ErrBadSize, payloadSize)
	}
	oid := backend.OID(m.next.Add(1) - 1)
	m.ensure(int(oid))
	m.mu.RLock()
	m.slots[oid].size.Store(int64(payloadSize + backend.ObjectHeaderSize))
	m.mu.RUnlock()
	m.live.Add(1)
	return oid, nil
}

// sizeLocked reads the slot's size under the caller-held read lock; <= 0
// means the OID is dead or was never issued.
func (m *Mem) sizeLocked(oid backend.OID) int64 {
	if oid == backend.NilOID || int(oid) >= len(m.slots) {
		return 0
	}
	return m.slots[oid].size.Load()
}

// Access implements backend.Backend: one object access, counted globally
// and on the object's own counter. There is no I/O to charge.
func (m *Mem) Access(oid backend.OID) error {
	m.mu.RLock()
	if m.sizeLocked(oid) <= 0 {
		m.mu.RUnlock()
		return fmt.Errorf("%w: %d", backend.ErrNoSuchObject, oid)
	}
	m.slots[oid].accesses.Add(1)
	m.mu.RUnlock()
	m.objectsAccessed.Add(1)
	return nil
}

// AccessBatch implements backend.Backend: the batch charges exactly what
// the equivalent Access sequence would (counters only, here); a dead OID
// truncates the batch and the completed prefix length is returned.
func (m *Mem) AccessBatch(oids []backend.OID) (int, error) {
	if len(oids) == 0 {
		return 0, nil
	}
	m.mu.RLock()
	for i, oid := range oids {
		if m.sizeLocked(oid) <= 0 {
			m.mu.RUnlock()
			m.objectsAccessed.Add(uint64(i))
			return i, fmt.Errorf("%w: %d", backend.ErrNoSuchObject, oid)
		}
		m.slots[oid].accesses.Add(1)
	}
	m.mu.RUnlock()
	m.objectsAccessed.Add(uint64(len(oids)))
	return len(oids), nil
}

// Update implements backend.Backend. An in-place modification of a
// memory-resident object is an access; there is nothing to mark dirty.
func (m *Mem) Update(oid backend.OID) error {
	return m.Access(oid)
}

// Delete implements backend.Backend. The slot's size drops to zero; the
// OID never resurrects (the OID counter only moves forward).
func (m *Mem) Delete(oid backend.OID) error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if oid == backend.NilOID || int(oid) >= len(m.slots) {
		return fmt.Errorf("%w: %d", backend.ErrNoSuchObject, oid)
	}
	s := &m.slots[oid]
	for {
		sz := s.size.Load()
		if sz <= 0 {
			return fmt.Errorf("%w: %d", backend.ErrNoSuchObject, oid)
		}
		if s.size.CompareAndSwap(sz, 0) {
			m.live.Add(-1)
			return nil
		}
	}
}

// Exists implements backend.Backend.
func (m *Mem) Exists(oid backend.OID) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.sizeLocked(oid) > 0
}

// SizeOf implements backend.Backend.
func (m *Mem) SizeOf(oid backend.OID) (int, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	sz := m.sizeLocked(oid)
	if sz <= 0 {
		return 0, false
	}
	return int(sz), true
}

// Commit implements backend.Backend. Memory is always "durable" here.
func (m *Mem) Commit() error { return nil }

// DropCache implements backend.Backend. There is no cache to drop; a cold
// restart of an in-memory store is indistinguishable from a warm one.
func (m *Mem) DropCache() {}

// Stats implements backend.Backend. Disk and pool counters are identically
// zero — the backend's whole point.
func (m *Mem) Stats() backend.Stats {
	return backend.Stats{
		ObjectsAccessed: m.objectsAccessed.Load(),
		Objects:         int(m.live.Load()),
	}
}

// DiskStats implements backend.Backend: no disk, zero I/Os, for free.
func (m *Mem) DiskStats() disk.Stats { return disk.Stats{} }

// ResetStats implements backend.Backend: the global and every per-object
// access counter restart from zero.
func (m *Mem) ResetStats() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.objectsAccessed.Store(0)
	for i := range m.slots {
		m.slots[i].accesses.Store(0)
	}
}

// Accesses returns the object's private access counter (0 for dead or
// unknown OIDs) — the per-object heat flatmem exposes in place of physical
// placement.
func (m *Mem) Accesses(oid backend.OID) uint64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if oid == backend.NilOID || int(oid) >= len(m.slots) {
		return 0
	}
	return m.slots[oid].accesses.Load()
}
