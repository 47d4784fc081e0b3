package backend

import (
	"errors"
	"fmt"

	"ocb/internal/buffer"
	"ocb/internal/disk"
)

// OID identifies a stored object. Zero is NilOID, never a live object.
// Backends must issue OIDs sequentially from 1 in creation order — the
// generation algorithms of every benchmark depend on object #i receiving
// OID i.
type OID uint64

// NilOID is the null object reference.
const NilOID OID = 0

// ObjectHeaderSize is the per-object on-disk overhead (oid + class tag +
// reference count words), modeled after persistent C++ object headers.
// Every backend charges it on top of the payload size so object sizes are
// comparable across backends.
const ObjectHeaderSize = 16

// Errors every backend returns for the error cases the protocol defines.
// Implementations must wrap these sentinels so errors.Is works across the
// driver boundary.
var (
	// ErrNoSuchObject reports an operation on a dead or never-issued OID.
	ErrNoSuchObject = errors.New("backend: no such object")
	// ErrObjectTooLarge reports an object a paged backend cannot place.
	ErrObjectTooLarge = errors.New("backend: object larger than a page")
	// ErrBadSize reports a negative object size.
	ErrBadSize = errors.New("backend: object size must be positive")
	// ErrNotSupported reports a capability the selected backend does not
	// implement (e.g. physical relocation on a store without pages).
	// Experiments treat it as "skip with a report line", not as failure.
	ErrNotSupported = errors.New("backend: operation not supported")
	// ErrNoRanger reports an ordered-index operation (scan, seek, key
	// lookup) on a backend without the Ranger capability. It wraps
	// ErrNotSupported so capability-gated callers — workload skips,
	// experiment report lines — treat it as the usual skip, while remote
	// callers still distinguish "no index" from other unsupported ops.
	ErrNoRanger = fmt.Errorf("%w: ordered index (Ranger)", ErrNotSupported)
)

// Stats is a snapshot of every counter the benchmarks report. Backends
// without a disk or buffer pool leave those sub-structs zeroed (their I/O
// is "infinitely fast", the control case the paper uses to isolate
// clustering gains from raw I/O cost).
type Stats struct {
	Disk            disk.Stats
	Pool            buffer.Stats
	ObjectsAccessed uint64
	Objects         int
	Pages           int
}

// RelocStats reports the cost of one Relocate call.
type RelocStats struct {
	ObjectsMoved int
	PagesRead    int
	PagesWritten int
	PagesFreed   int
	NewPages     int
}

// Backend is the core system-under-test contract: the object protocol the
// workloads actually use. Every method must be safe for concurrent use by
// multiple benchmark clients.
//
// Measurement discipline: Access/AccessBatch/Update are the hot path of
// every transaction; implementations must not allocate per call in steady
// state, or the harness's own overhead pollutes the measured response
// times (the executors are guarded by AllocsPerRun tests).
type Backend interface {
	// Create allocates a new object of the given payload size (the header
	// is added internally) placed in creation order, returning its OID.
	Create(payloadSize int) (OID, error)
	// Access faults the object in (one logical object access).
	Access(oid OID) error
	// AccessBatch accesses a group of objects in order, charging exactly
	// the I/Os and counters the equivalent sequence of Access calls would.
	// It returns how many objects were fully accessed; on error the count
	// covers the prefix that completed.
	AccessBatch(oids []OID) (int, error)
	// Update is Access plus an in-place modification.
	Update(oid OID) error
	// Delete removes an object. Its OID never resurrects.
	Delete(oid OID) error
	// Exists reports whether the OID names a live object.
	Exists(oid OID) bool
	// SizeOf returns the stored size of the object (header included).
	SizeOf(oid OID) (int, bool)
	// Commit makes all pending modifications durable (transaction commit).
	Commit() error
	// DropCache empties any volatile cache without write-back, simulating
	// a cold restart between benchmark phases.
	DropCache()
	// Stats returns a snapshot of all counters.
	Stats() Stats
	// DiskStats returns the disk I/O counters alone, without locking; the
	// executors sample it before and after every transaction, so it must
	// be cheap. Backends without disks return the zero value.
	DiskStats() disk.Stats
	// ResetStats zeroes every counter (placement is untouched).
	ResetStats()
}

// Placer is the optional page-placement capability: backends that map
// objects onto disk pages expose where each object physically lives.
// Clustering evaluations use it to verify placement; backends without a
// page abstraction simply do not implement it.
type Placer interface {
	// PageSize returns the page grain in bytes.
	PageSize() int
	// PageOf returns the (first) page currently holding the object.
	PageOf(oid OID) (disk.PageID, bool)
	// PagesOf returns the object's whole page run.
	PagesOf(oid OID) ([]disk.PageID, bool)
	// Layout returns, for every page, the ordered object ids it holds.
	Layout() map[disk.PageID][]OID
}

// Relocator is the optional physical-reorganization capability clustering
// policies require. A backend without it still runs every workload; the
// clustering experiments report the skip instead of failing.
type Relocator interface {
	// Relocate applies a clustering layout: each cluster's objects placed
	// contiguously, clusters packed in order. The I/O is charged to the
	// clustering overhead class.
	Relocate(clusters [][]OID) (RelocStats, error)
}

// Ranger is the optional ordered-index capability: the backend maintains
// its objects in OID order (and, once SetKey has indexed them, in
// attribute-key order) and answers range and positional queries against
// that order. Workloads use it for the set-oriented half of the generic
// benchmark — range scans, attribute-predicate selections, ordered
// seeks — so access-path choice becomes a measurable axis.
//
// Index reads charge no object I/O: Scan/Seek/ScanKey walk the index
// alone, and callers fault the results in through Access/AccessBatch so
// the faulting cost lands in the same counters as point workloads.
type Ranger interface {
	// Scan appends to dst the live OIDs in [lo, hi] in ascending OID
	// order (descending when desc), stopping after limit results when
	// limit > 0. Both bounds are inclusive; hi == NilOID means "to the
	// end"; lo > hi yields an empty result, not an error. The returned
	// slice aliases dst's backing array when it has capacity.
	Scan(lo, hi OID, limit int, desc bool, dst []OID) ([]OID, error)
	// Seek returns the first live OID >= oid (<= when desc), or
	// NilOID, false when no live object lies in that direction.
	Seek(oid OID, desc bool) (OID, bool)
	// SetKey indexes the object under an integer attribute key,
	// replacing any previous key for the same OID. Deleting the object
	// removes it from the key index. Returns ErrNoSuchObject on a dead
	// or never-issued OID.
	SetKey(oid OID, key int64) error
	// ScanKey appends to dst the live OIDs whose attribute key lies in
	// [lo, hi] (inclusive), ordered by (key, OID) ascending, stopping
	// after limit results when limit > 0. Objects never given a key do
	// not appear.
	ScanKey(lo, hi int64, limit int, dst []OID) ([]OID, error)
}

// IOClassifier is the optional I/O-accounting capability: routing
// subsequent I/O charges to an accounting class (transaction vs
// clustering overhead).
type IOClassifier interface {
	SetIOClass(c disk.IOClass)
}

// Checker is the optional self-check capability: an exhaustive internal
// consistency audit (directory vs physical placement), far too slow for
// the hot path but invaluable in tests and after reorganizations.
type Checker interface {
	CheckIntegrity() error
}

// Durable is the optional durability capability: backends whose state
// lives on stable storage and survives the process. Close flushes all
// committed state and releases the instance; Reopen constructs a fresh
// instance over the same durable state, running whatever recovery the
// driver needs (the receiver must have been closed first). Both require
// the store to be quiescent. In-memory backends do not implement it; the
// conformance durability section and the crash-recovery tests skip on
// them.
type Durable interface {
	Close() error
	Reopen() (Backend, error)
}

// Shutdown releases a backend that owns external resources: on Durable
// backends it closes the instance (flushing, checkpointing and releasing
// its files — an ephemeral store also removes its scratch directory);
// on in-memory backends it is a no-op. Commands and experiments call it
// when they are done with a store they opened.
func Shutdown(b Backend) error {
	if d, ok := b.(Durable); ok {
		return d.Close()
	}
	return nil
}

// CheckIntegrity runs the backend's self-check when it has one; backends
// without internal structure to audit pass vacuously.
func CheckIntegrity(b Backend) error {
	if c, ok := b.(Checker); ok {
		return c.CheckIntegrity()
	}
	return nil
}

// AsRelocator returns the backend's Relocator capability, or
// ErrNotSupported (wrapped with the reason) when the backend cannot
// physically reorganize.
func AsRelocator(b Backend) (Relocator, error) {
	if r, ok := b.(Relocator); ok {
		return r, nil
	}
	return nil, errNoCapability("physical relocation")
}

// AsRanger returns the backend's Ranger capability, or ErrNoRanger (which
// wraps ErrNotSupported) when the backend keeps no ordered index.
func AsRanger(b Backend) (Ranger, error) {
	if r, ok := b.(Ranger); ok {
		return r, nil
	}
	return nil, ErrNoRanger
}

// AsPlacer returns the backend's Placer capability, or ErrNotSupported.
func AsPlacer(b Backend) (Placer, error) {
	if p, ok := b.(Placer); ok {
		return p, nil
	}
	return nil, errNoCapability("page placement")
}

// PageSizeOf returns the backend's page grain, or the classic 4 KB default
// for backends without pages — the byte budget clustering policies fall
// back to when sizing their units.
func PageSizeOf(b Backend) int {
	if p, ok := b.(Placer); ok {
		return p.PageSize()
	}
	return disk.DefaultPageSize
}

// SetIOClass routes subsequent I/O charges on backends that classify I/O;
// on others it is a no-op (there is no I/O to classify).
func SetIOClass(b Backend, c disk.IOClass) {
	if cl, ok := b.(IOClassifier); ok {
		cl.SetIOClass(c)
	}
}

// errNoCapability wraps ErrNotSupported with the missing capability's name.
func errNoCapability(what string) error {
	return fmt.Errorf("%w: %s", ErrNotSupported, what)
}
