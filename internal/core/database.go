package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ocb/internal/backend"
	"ocb/internal/lewis"
)

// Object is one instance of an OCB class (the OBJECT side of Fig. 1).
// Navigation metadata (ORef, BackRef) lives in memory — what the paper
// keeps as swizzled pointers — while the object's pages live in the store;
// every visit faults through the executor's access stream, so I/O
// accounting is exact.
type Object struct {
	// OID is the store identity; object #i of the generation algorithm
	// has OID i.
	OID backend.OID
	// Class is the ClassPtr of Fig. 1 (class id, 1..NC).
	Class int
	// ORef are the typed forward references (NilOID allowed).
	ORef []backend.OID
	// BackRef are the reverse references, maintained symmetrically to the
	// ORef arrays pointing at this object.
	BackRef []backend.OID
}

// Database is a fully generated OCB object base bound to its store.
type Database struct {
	// P are the parameters the database was generated with.
	P Params
	// Schema is the generated class graph.
	Schema *Schema
	// Objects is indexed by OID (Objects[0] is nil).
	Objects []*Object
	// Store is the system under test: any registered backend driver.
	// Placement and I/O accounting live behind its interface.
	Store backend.Backend
	// GenTime is the wall-clock duration of Generate, the metric of the
	// paper's Fig. 4 (database average creation time).
	GenTime time.Duration

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

	// mu guards the in-memory object graph (Objects, class iterators,
	// BackRefs, the live set) against the generic workload's structural
	// mutations: Executor.Exec share-locks it for read-only transaction
	// types and takes it exclusively for insertions and deletions, so
	// CLIENTN > 1 stays safe even under the Section 5 mutating workload.
	mu sync.RWMutex
}

// Generate runs the full database generation algorithm of Fig. 2 and
// returns a ready-to-benchmark database. Generation is deterministic in
// p.Seed. The store's statistics are reset afterwards so that generation
// I/O does not pollute workload measurements.
func Generate(p Params) (*Database, error) {
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

	db := &Database{
		P:       p,
		Schema:  schema,
		Objects: make([]*Object, p.NO+1),
		Store:   st,
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
			return nil, fmt.Errorf("ocb: store issued OID %d for object %d", oid, i)
		}
		obj := &Object{
			OID:   oid,
			Class: classID,
			ORef:  make([]backend.OID, class.MaxNRef),
		}
		db.Objects[i] = obj
		class.Iterator = append(class.Iterator, oid)
	}

	// Instances — inter-object references: the Fig. 2 loop iterates
	// class by class over each class's iterator, drawing the referenced
	// iterator position l via DIST4 within [INFREF, SUPREF] (clamped to
	// the target iterator's extent). The locality center for zone-based
	// distributions is the object's own id scaled into the target
	// iterator, reproducing OO1's [Id-RefZone, Id+RefZone] behaviour.
	for ci := 1; ci <= p.NC; ci++ {
		class := schema.Class(ci)
		for _, oid := range class.Iterator {
			obj := db.Objects[oid]
			for k := 0; k < class.MaxNRef; k++ {
				targetClass := schema.Class(class.CRef[k])
				if targetClass == nil || len(targetClass.Iterator) == 0 {
					obj.ORef[k] = backend.NilOID
					continue
				}
				count := len(targetClass.Iterator)
				lo := clampInt(p.InfRef, 1, count)
				hi := clampInt(p.SupRef, 1, count)
				center := scaleIndex(int(oid), p.NO, count)
				l := p.Dist4.Draw(src, lo, hi, center)
				target := targetClass.Iterator[l-1]
				obj.ORef[k] = target
				db.Objects[target].BackRef = append(db.Objects[target].BackRef, oid)
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

// Object returns the object with the given OID, or nil.
func (db *Database) Object(oid backend.OID) *Object {
	if oid == backend.NilOID || int(oid) >= len(db.Objects) {
		return nil
	}
	return db.Objects[oid]
}

// NO returns the number of objects.
func (db *Database) NO() int { return len(db.Objects) - 1 }

// ClassOf returns the class id of an object (0 if unknown), in the shape
// clustering policies want for type-based grouping.
func (db *Database) ClassOf(oid backend.OID) (int, bool) {
	o := db.Object(oid)
	if o == nil {
		return 0, false
	}
	return o.Class, true
}

// AllOIDs enumerates every live object id in ascending order, the
// enumerator whole-database policies need. Unlike LiveOIDs it returns a
// fresh slice the caller may reorder freely.
func (db *Database) AllOIDs() []backend.OID {
	return append([]backend.OID(nil), db.LiveOIDs()...)
}

// CheckDatabase verifies the object-graph invariants: reference targets
// exist and belong to the class the schema dictates, reference arrays have
// MAXNREF slots, and BackRef is exactly symmetric to ORef. Databases that
// have seen generic-workload insertions and deletions are checked over
// their live object set.
func CheckDatabase(db *Database) error {
	p := db.P
	mutated := len(db.Objects)-1 != p.NO || db.NumLive() != p.NO
	// Live-set invariant: the ascending snapshot lists exactly the non-nil
	// Objects, in order, and the live count agrees with it, the store and
	// the class iterators.
	snap := db.LiveOIDs()
	k := 0
	for i, obj := range db.Objects {
		if obj == nil {
			continue
		}
		if k == len(snap) || snap[k] != backend.OID(i) {
			return fmt.Errorf("ocb: live snapshot does not list object %d in order", i)
		}
		k++
	}
	if k != len(snap) || k != db.NumLive() {
		return fmt.Errorf("ocb: live snapshot holds %d entries, Objects %d, live count %d", len(snap), k, db.NumLive())
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
	for i := 1; i < len(db.Objects); i++ {
		obj := db.Objects[i]
		if obj == nil {
			if !mutated {
				return fmt.Errorf("ocb: object %d missing", i)
			}
			continue
		}
		class := db.Schema.Class(obj.Class)
		if class == nil {
			return fmt.Errorf("ocb: object %d has bad class %d", i, obj.Class)
		}
		if len(obj.ORef) != class.MaxNRef {
			return fmt.Errorf("ocb: object %d has %d ref slots, want %d", i, len(obj.ORef), class.MaxNRef)
		}
		if !db.Store.Exists(obj.OID) {
			return fmt.Errorf("ocb: object %d not in store", i)
		}
		for k, target := range obj.ORef {
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
			tobj := db.Object(target)
			if tobj == nil {
				return fmt.Errorf("ocb: object %d ref %d dangles (%d)", i, k, target)
			}
			if tobj.Class != class.CRef[k] {
				return fmt.Errorf("ocb: object %d ref %d targets class %d, schema says %d",
					i, k, tobj.Class, class.CRef[k])
			}
			forward[link{obj.OID, target}]++
		}
	}
	// BackRef symmetry: the multiset of (from, to) forward links must
	// equal the multiset of (from, to) reconstructed from BackRefs.
	backward := make(map[link]int)
	for i := 1; i < len(db.Objects); i++ {
		if db.Objects[i] == nil {
			continue
		}
		for _, from := range db.Objects[i].BackRef {
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
