package core

import (
	"fmt"
	"sort"

	"ocb/internal/backend"
	"ocb/internal/lewis"
)

// This file implements the paper's Section 5 extension: "OCB could be
// easily enhanced to become a fully generic object-oriented benchmark ...
// by extending the transaction set so that it includes a broader range of
// operations (namely operations we discarded in the first place because
// they couldn't benefit from clustering)". The discarded operations the
// paper names are creation and update operations, HyperModel's Range
// Lookup and Sequential Scan; all are provided here, plus deletion so the
// object base can reach a steady state under churn.
//
// The database tracks its live objects so workloads with insertions and
// deletions keep drawing valid victims/roots.

// initLive seeds the live-object tracking after generation.
func (db *Database) initLive() {
	db.liveSnapOK.Store(false)
	db.live = len(db.LiveOIDs())
}

// NumLive returns the number of live objects (inserts minus deletes).
func (db *Database) NumLive() int { return db.live }

// LiveOIDs returns the live objects in ascending OID order. The returned
// slice is a shared snapshot maintained incrementally across insertions and
// rebuilt lazily after deletions: callers must treat it as read-only, and
// it is only guaranteed current until the next structural mutation. Scan
// transactions and ResolveLive ride this snapshot so they no longer rebuild
// an O(n) slice per call; callers that want to reorder the result should
// use AllOIDs instead.
func (db *Database) LiveOIDs() []backend.OID {
	if db.liveSnapOK.Load() {
		return db.liveSnap
	}
	db.snapMu.Lock()
	defer db.snapMu.Unlock()
	if !db.liveSnapOK.Load() {
		// Rebuild into a fresh slice: snapshots handed out earlier stay
		// intact for their holders.
		snap := make([]backend.OID, 0, db.live)
		for i, c := range db.class {
			if c != 0 {
				snap = append(snap, backend.OID(i))
			}
		}
		db.liveSnap = snap
		db.liveSnapOK.Store(true)
	}
	return db.liveSnap
}

// ResolveLive maps an arbitrary OID onto a live object: itself when live,
// otherwise the next live OID upward (wrapping). It lets transaction roots
// drawn from the static [1, NO] interval stay valid under deletion. The
// lookup binary-searches the ascending live snapshot.
func (db *Database) ResolveLive(oid backend.OID) (backend.OID, bool) {
	live := db.LiveOIDs()
	if len(live) == 0 {
		return backend.NilOID, false
	}
	i := sort.Search(len(live), func(i int) bool { return live[i] >= oid })
	if i == len(live) {
		i = 0 // wrap past the highest live OID
	}
	return live[i], true
}

// trackInsert registers a new live object. Callers hold the database's
// exclusive lock. OIDs are issued in increasing order, so the ascending
// snapshot extends in place without losing sortedness.
func (db *Database) trackInsert(oid backend.OID) {
	db.live++
	db.snapMu.Lock()
	if db.liveSnapOK.Load() {
		db.liveSnap = append(db.liveSnap, oid)
	}
	db.snapMu.Unlock()
}

// trackDelete unregisters a live object and invalidates the ascending
// snapshot; the next LiveOIDs call rebuilds it. Callers hold the
// database's exclusive lock.
func (db *Database) trackDelete() {
	db.live--
	db.liveSnapOK.Store(false)
}

// InsertObject creates one new object following the generation rules: its
// class is drawn via DIST3, its references via DIST4 within the reference
// interval of each target class's iterator, and BackRefs are maintained.
// The new object is placed in creation order (at the end of the heap, as
// Texas allocates), appended to the object table, and the change is
// committed. An insertion that would take the table past its uint32 OIDs
// and slot offsets fails before the store creates anything.
func (db *Database) InsertObject(src *lewis.Source) (backend.OID, error) {
	p := db.P
	want := backend.OID(len(db.class))
	classID := p.Dist3.Draw(src, 1, p.NC, int(want))
	class := db.Schema.Class(classID)
	if class == nil {
		return backend.NilOID, fmt.Errorf("ocb: insert drew class %d", classID)
	}
	if uint64(want) > slotLimit || uint64(len(db.refs))+uint64(class.MaxNRef) > slotLimit {
		return backend.NilOID, fmt.Errorf("ocb: inserting object %d with %d slots passes the object table's %d slots",
			want, class.MaxNRef, slotLimit)
	}
	oid, err := db.Store.Create(class.DiskSize())
	if err != nil {
		return backend.NilOID, err
	}
	if oid != want {
		return backend.NilOID, fmt.Errorf("ocb: insert got OID %d, want %d", oid, want)
	}
	db.class = append(db.class, int32(classID))
	db.refs = append(db.refs, make([]uint32, class.MaxNRef)...)
	db.refAt = append(db.refAt, uint32(len(db.refs)))
	db.backRefs = append(db.backRefs, nil)
	class.Iterator = append(class.Iterator, oid)
	db.trackInsert(oid)

	slots := db.slots(oid)
	for k := range slots {
		targetClass := db.Schema.Class(class.CRef[k])
		if targetClass == nil || len(targetClass.Iterator) == 0 {
			continue // the slot stays NIL
		}
		count := len(targetClass.Iterator)
		lo := clampInt(p.InfRef, 1, count)
		hi := clampInt(p.SupRef, 1, count)
		center := scaleIndex(int(oid), int(oid), count)
		l := p.Dist4.Draw(src, lo, hi, center)
		target := targetClass.Iterator[l-1]
		slots[k] = uint32(target)
		db.backRefs[target] = append(db.backRefs[target], oid)
	}
	return oid, db.Store.Commit()
}

// DeleteObject removes an object and repairs the graph: referrers' slots
// become NIL in place, targets lose the matching BackRef entries, the
// class iterator shrinks, and the store page is updated. The object's own
// slots are cleared and its class column entry zeroed. The change is
// committed.
func (db *Database) DeleteObject(oid backend.OID) error {
	if !db.Live(oid) {
		return fmt.Errorf("%w: %d", backend.ErrNoSuchObject, oid)
	}
	// Forward references: drop this object from each target's BackRef.
	for _, r := range db.slots(oid) {
		target := backend.OID(r)
		if !db.Live(target) {
			continue
		}
		back := db.backRefs[target]
		for i, b := range back {
			if b == oid {
				db.backRefs[target] = append(back[:i], back[i+1:]...)
				break
			}
		}
	}
	// Backward references: NIL out one matching slot per referring entry.
	for _, from := range db.backRefs[oid] {
		if !db.Live(from) {
			continue
		}
		slots := db.slots(from)
		for k, r := range slots {
			if backend.OID(r) == oid {
				slots[k] = 0 // NIL
				break
			}
		}
		if err := db.Store.Update(from); err != nil {
			return err
		}
	}
	// Class iterator.
	class := db.Schema.Class(int(db.class[oid]))
	for i, it := range class.Iterator {
		if it == oid {
			class.Iterator = append(class.Iterator[:i], class.Iterator[i+1:]...)
			break
		}
	}
	if err := db.Store.Delete(oid); err != nil {
		return err
	}
	clear(db.slots(oid))
	db.class[oid] = 0
	db.backRefs[oid] = nil
	db.trackDelete()
	return db.Store.Commit()
}

// GenericParams returns the Section 5 "fully generic" parameterization:
// the four clustering-oriented transaction types plus the operations the
// paper initially discarded (update, insertion, deletion, sequential scan
// and range lookup), with a balanced mix.
func GenericParams() Params {
	p := DefaultParams()
	p.PSet, p.PSimple, p.PHier, p.PStoch = 0.15, 0.15, 0.15, 0.15
	p.PUpdate, p.PInsert, p.PDelete = 0.15, 0.10, 0.05
	p.PScan, p.PRange = 0.02, 0.08
	return p
}
