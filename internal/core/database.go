package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"ocb/internal/backend"
	"ocb/internal/lewis"
)

// Database is a fully generated OCB object base bound to its store.
//
// The object graph (the OBJECT side of Fig. 1) lives in memory as one
// object table: columns indexed by OID, which hold what the paper keeps as
// swizzled pointers, while the objects' pages live in the store. Every
// visit faults through the executor's access stream, so I/O accounting is
// exact. Code outside this package reads the table through Live, ClassOf,
// NumRefs, ORef and BackRef.
type Database struct {
	// P are the parameters the database was generated with.
	P Params
	// Schema is the generated class graph.
	Schema *Schema
	// Store is the system under test: any registered backend driver.
	// Placement and I/O accounting live behind its interface.
	Store backend.Backend
	// GenTime is the wall-clock duration of Generate, the metric of the
	// paper's Fig. 4 (database average creation time).
	GenTime time.Duration

	// class[oid] is the object's ClassPtr (class id, 1..NC); 0 marks an
	// OID never issued (0 itself) or deleted. len(class) is the highest
	// OID issued plus one.
	class []int32
	// refs holds every object's MAXNREF(class) typed forward slots in OID
	// order: object oid's slots are refs[refAt[oid]:refAt[oid+1]], each an
	// OID or NIL (0). refAt has len(class)+1 entries. A deleted object's
	// slots stay in place, all NIL.
	refs  []uint32
	refAt []uint32
	// backRefs[oid] are the reverse references, maintained symmetrically
	// to the forward slots pointing at oid.
	backRefs [][]backend.OID

	// live counts the live objects under the generic workload's
	// insertions and deletions.
	live int

	// liveSnap is the ascending-OID snapshot LiveOIDs serves without
	// rebuilding an O(n) slice per call. Insertions extend it in place
	// (OIDs are issued in increasing order, so sortedness is preserved);
	// deletions invalidate it and the next LiveOIDs rebuilds lazily.
	// snapMu guards the rebuild so concurrent readers (which only hold
	// mu.RLock) do not race; liveSnapOK is the double-checked flag.
	snapMu     sync.Mutex
	liveSnap   []backend.OID
	liveSnapOK atomic.Bool

	// mu guards the in-memory object graph (the object table, class
	// iterators, the live set) against the generic workload's structural
	// mutations: Executor.Exec share-locks it for read-only transaction
	// types and takes it exclusively for insertions and deletions, so
	// CLIENTN > 1 stays safe even under the Section 5 mutating workload.
	mu sync.RWMutex
}

// slotLimit bounds the object table: OIDs and slot offsets are uint32, so
// neither the highest OID nor the total slot count may pass it. Tests
// lower it to reach the bound without a 4-billion-slot table.
var slotLimit uint64 = math.MaxUint32

// Generate runs the full database generation algorithm of Fig. 2 and
// returns a ready-to-benchmark database. Generation is deterministic in
// p.Seed. The store's statistics are reset afterwards so that generation
// I/O does not pollute workload measurements. A generation that fails
// releases the store it opened.
func Generate(p Params) (db *Database, err error) {
	//ocblint:allow determinism -- harness timing, not op logic
	start := time.Now()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	src := lewis.New(p.Seed)

	schema, err := GenerateSchema(p, src)
	if err != nil {
		return nil, err
	}

	st, err := backend.Open(p.Backend, backend.Config{
		PageSize:    p.PageSize,
		BufferPages: p.BufferPages,
		Options:     p.BackendOptions,
	})
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			_ = backend.Shutdown(st)
		}
	}()

	db = &Database{
		P:        p,
		Schema:   schema,
		Store:    st,
		class:    make([]int32, p.NO+1),
		refAt:    make([]uint32, p.NO+2),
		backRefs: make([][]backend.OID, p.NO+1),
	}

	// Instances — objects: class drawn via DIST3, object created in
	// creation order (which interleaves classes on disk, the placement a
	// clustering policy must later undo), iterator updated.
	for i := 1; i <= p.NO; i++ {
		classID := p.Dist3.Draw(src, 1, p.NC, i)
		class := schema.Class(classID)
		oid, err := st.Create(class.DiskSize())
		if err != nil {
			return nil, fmt.Errorf("ocb: creating object %d (class %d): %w", i, classID, err)
		}
		if oid != backend.OID(i) {
			return nil, fmt.Errorf("ocb: store issued OID %d for object %d: the OCB generator numbers objects from OID 1 and needs an empty store", oid, i)
		}
		db.class[i] = int32(classID)
		db.refAt[i+1] = db.refAt[i] + uint32(class.MaxNRef)
		class.Iterator = append(class.Iterator, oid)
	}
	// Validate bounds the slot total by slotLimit, so the offsets above
	// did not wrap.
	db.refs = make([]uint32, db.refAt[p.NO+1])

	// Instances — inter-object references: the Fig. 2 loop iterates
	// class by class over each class's iterator, drawing the referenced
	// iterator position l via DIST4 within [INFREF, SUPREF] (clamped to
	// the target iterator's extent). The locality center for zone-based
	// distributions is the object's own id scaled into the target
	// iterator, reproducing OO1's [Id-RefZone, Id+RefZone] behaviour.
	for ci := 1; ci <= p.NC; ci++ {
		class := schema.Class(ci)
		for _, oid := range class.Iterator {
			slots := db.slots(oid)
			for k := range slots {
				targetClass := schema.Class(class.CRef[k])
				if targetClass == nil || len(targetClass.Iterator) == 0 {
					continue // the slot stays NIL
				}
				count := len(targetClass.Iterator)
				lo := clampInt(p.InfRef, 1, count)
				hi := clampInt(p.SupRef, 1, count)
				center := scaleIndex(int(oid), p.NO, count)
				l := p.Dist4.Draw(src, lo, hi, center)
				target := targetClass.Iterator[l-1]
				slots[k] = uint32(target)
				db.backRefs[target] = append(db.backRefs[target], oid)
			}
		}
	}

	if err := st.Commit(); err != nil {
		return nil, err
	}
	db.initLive()
	//ocblint:allow determinism -- harness timing, not op logic
	db.GenTime = time.Since(start)
	st.ResetStats()
	return db, nil
}

// MustGenerate is Generate for known-good parameters; it panics on error.
func MustGenerate(p Params) *Database {
	db, err := Generate(p)
	if err != nil {
		panic(err)
	}
	return db
}

// Close releases the database's store: durable backends close their
// files (an ephemeral store also removes its scratch directory), while
// in-memory backends make this a no-op. Whoever generates or loads a
// database owns closing it; the database is unusable afterwards.
func (db *Database) Close() error { return backend.Shutdown(db.Store) }

// NO returns the highest OID issued: the number of objects generated plus
// those inserted since.
func (db *Database) NO() int { return len(db.class) - 1 }

// Live reports whether oid names a live object.
func (db *Database) Live(oid backend.OID) bool {
	return oid < backend.OID(len(db.class)) && db.class[oid] != 0
}

// ClassOf returns the class id of an object (0 if unknown), in the shape
// clustering policies want for type-based grouping.
func (db *Database) ClassOf(oid backend.OID) (int, bool) {
	if !db.Live(oid) {
		return 0, false
	}
	return int(db.class[oid]), true
}

// NumRefs returns the number of forward slots of a live object,
// MAXNREF(class), or 0 for an OID that names none.
func (db *Database) NumRefs(oid backend.OID) int {
	if !db.Live(oid) {
		return 0
	}
	return len(db.slots(oid))
}

// ORef returns forward slot k (0 <= k < NumRefs(oid)) of a live object:
// the referenced OID, or NilOID.
func (db *Database) ORef(oid backend.OID, k int) backend.OID {
	return backend.OID(db.slots(oid)[k])
}

// BackRef returns the objects whose forward slots point at oid, one entry
// per pointing slot. The slice is the table's own: callers must not
// modify it, and it is only current until the next structural mutation.
func (db *Database) BackRef(oid backend.OID) []backend.OID {
	if !db.Live(oid) {
		return nil
	}
	return db.backRefs[oid]
}

// slots returns oid's forward slots in the table. oid must be in range.
func (db *Database) slots(oid backend.OID) []uint32 {
	return db.refs[db.refAt[oid]:db.refAt[oid+1]]
}

// AllOIDs enumerates every live object id in ascending order, the
// enumerator whole-database policies need. Unlike LiveOIDs it returns a
// fresh slice the caller may reorder freely.
func (db *Database) AllOIDs() []backend.OID {
	return append([]backend.OID(nil), db.LiveOIDs()...)
}

// CheckDatabase verifies the object-graph invariants: the object table is
// well formed, reference targets exist and belong to the class the schema
// dictates, every object has MAXNREF slots, and BackRef is exactly
// symmetric to the forward slots. Databases that have seen
// generic-workload insertions and deletions are checked over their live
// object set; a deleted object must keep neither forward nor backward
// references.
func CheckDatabase(db *Database) error {
	p := db.P
	n := len(db.class)
	if n == 0 || len(db.refAt) != n+1 || len(db.backRefs) != n || int(db.refAt[n]) != len(db.refs) {
		return fmt.Errorf("ocb: object table has %d classes, %d offsets, %d back-reference lists, %d slots",
			n, len(db.refAt), len(db.backRefs), len(db.refs))
	}
	for i := 0; i < n; i++ {
		if db.refAt[i+1] < db.refAt[i] {
			return fmt.Errorf("ocb: slot offsets decrease at object %d", i)
		}
	}
	if db.class[0] != 0 || db.refAt[1] != 0 || len(db.backRefs[0]) != 0 {
		return fmt.Errorf("ocb: the NIL OID holds an object")
	}
	mutated := n-1 != p.NO || db.NumLive() != p.NO
	// Live-set invariant: the ascending snapshot lists exactly the live
	// OIDs, in order, and the live count agrees with it, the store and
	// the class iterators.
	snap := db.LiveOIDs()
	k := 0
	for i := 1; i < n; i++ {
		if db.class[i] == 0 {
			continue
		}
		if k == len(snap) || snap[k] != backend.OID(i) {
			return fmt.Errorf("ocb: live snapshot does not list object %d in order", i)
		}
		k++
	}
	if k != len(snap) || k != db.NumLive() {
		return fmt.Errorf("ocb: live snapshot holds %d entries, object table %d, live count %d", len(snap), k, db.NumLive())
	}
	if n := db.Store.Stats().Objects; n != db.NumLive() {
		return fmt.Errorf("ocb: store holds %d objects, live count says %d",
			n, db.NumLive())
	}
	iterSum := 0
	for ci := 1; ci <= p.NC; ci++ {
		iterSum += len(db.Schema.Class(ci).Iterator)
	}
	if iterSum != db.NumLive() {
		return fmt.Errorf("ocb: iterators cover %d objects, live count says %d", iterSum, db.NumLive())
	}
	type link struct {
		from, to backend.OID
	}
	forward := make(map[link]int)
	for i := 1; i < n; i++ {
		oid := backend.OID(i)
		slots := db.slots(oid)
		if db.class[i] == 0 {
			if !mutated {
				return fmt.Errorf("ocb: object %d missing", i)
			}
			for _, r := range slots {
				if r != 0 {
					return fmt.Errorf("ocb: deleted object %d still references %d", i, r)
				}
			}
			if len(db.backRefs[i]) != 0 {
				return fmt.Errorf("ocb: deleted object %d still has %d back-references", i, len(db.backRefs[i]))
			}
			continue
		}
		class := db.Schema.Class(int(db.class[i]))
		if class == nil {
			return fmt.Errorf("ocb: object %d has bad class %d", i, db.class[i])
		}
		if len(slots) != class.MaxNRef {
			return fmt.Errorf("ocb: object %d has %d ref slots, want %d", i, len(slots), class.MaxNRef)
		}
		if !db.Store.Exists(oid) {
			return fmt.Errorf("ocb: object %d not in store", i)
		}
		for k, r := range slots {
			target := backend.OID(r)
			if target == backend.NilOID {
				if class.CRef[k] != NilClass && !mutated {
					// A NIL object reference with a non-NIL class target can
					// only happen when the target class has no instances
					// (or, on mutated databases, when the target was
					// deleted).
					tc := db.Schema.Class(class.CRef[k])
					if tc != nil && len(tc.Iterator) > 0 {
						return fmt.Errorf("ocb: object %d ref %d NIL despite instances of class %d", i, k, class.CRef[k])
					}
				}
				continue
			}
			tclass, ok := db.ClassOf(target)
			if !ok {
				return fmt.Errorf("ocb: object %d ref %d dangles (%d)", i, k, target)
			}
			if tclass != class.CRef[k] {
				return fmt.Errorf("ocb: object %d ref %d targets class %d, schema says %d",
					i, k, tclass, class.CRef[k])
			}
			forward[link{oid, target}]++
		}
	}
	// BackRef symmetry: the multiset of (from, to) forward links must
	// equal the multiset of (from, to) reconstructed from BackRefs.
	backward := make(map[link]int)
	for i := 1; i < n; i++ {
		for _, from := range db.backRefs[i] {
			backward[link{from, backend.OID(i)}]++
		}
	}
	if len(forward) != len(backward) {
		return fmt.Errorf("ocb: %d forward links vs %d backward links", len(forward), len(backward))
	}
	for l, n := range forward {
		if backward[l] != n {
			return fmt.Errorf("ocb: link %d->%d has %d forward, %d backward", l.from, l.to, n, backward[l])
		}
	}
	return nil
}

// clampInt bounds v to [lo, hi].
func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// scaleIndex maps an object id in [1, no] proportionally into [1, count].
func scaleIndex(id, no, count int) int {
	if no <= 1 || count <= 1 {
		return 1
	}
	return 1 + (id-1)*(count-1)/(no-1)
}
