package core

import (
	"bytes"
	"encoding/gob"
	"slices"
	"strings"
	"testing"

	"ocb/internal/backend"
	"ocb/internal/lewis"
)

// TestObjectTableBounds: the object table indexes OIDs and slot offsets
// with uint32. Validate rejects a parameter set whose slots could not be
// indexed, and InsertObject fails, creating nothing, instead of wrapping.
func TestObjectTableBounds(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(*Params)
		ok   bool
	}{
		{"defaults", func(*Params) {}, true},
		{"slots just fit", func(p *Params) { p.NO, p.SupRef, p.MaxNRef = 1<<22, 1<<22, 1<<10-1 }, true},
		{"slots reach 2^32", func(p *Params) { p.NO, p.SupRef, p.MaxNRef = 1<<22, 1<<22, 1<<10 }, false},
		{"a per-class MAXNREF reaches 2^32", func(p *Params) {
			p.NO, p.SupRef = 1<<22, 1<<22
			p.MaxNRefPerClass = make([]int, p.NC+1)
			p.MaxNRefPerClass[p.NC] = 1 << 10
		}, false},
		{"MAXNREF too large to multiply", func(p *Params) { p.NO, p.SupRef, p.MaxNRef = 2, 2, 1<<62 }, false},
		{"OIDs pass uint32 without slots", func(p *Params) { p.NO, p.SupRef, p.MaxNRef = 1<<32, 1<<32, 0 }, false},
	} {
		t.Run("Validate/"+tc.name, func(t *testing.T) {
			p := DefaultParams()
			tc.set(&p)
			err := p.Validate()
			if tc.ok && err != nil || !tc.ok && (err == nil || !strings.Contains(err.Error(), "object table")) {
				t.Fatalf("Validate = %v, want ok %v", err, tc.ok)
			}
		})
	}

	for _, tc := range []struct {
		name    string
		maxNRef int
		// room is how far past the generated table the limit lies.
		room func(db *Database) uint64
	}{
		{"slot offsets", 3, func(db *Database) uint64 { return uint64(len(db.refs)) + 10 }},
		{"OIDs", 0, func(db *Database) uint64 { return uint64(db.NO()) + 4 }},
	} {
		t.Run("InsertObject/"+tc.name, func(t *testing.T) {
			p := genericSmall()
			p.MaxNRef = tc.maxNRef
			db := MustGenerate(p)
			defer func(old uint64) { slotLimit = old }(slotLimit)
			slotLimit = tc.room(db)
			src := lewis.New(3)
			inserted := 0
			var err error
			for ; inserted < 100; inserted++ {
				if _, err = db.InsertObject(src); err != nil {
					break
				}
			}
			if err == nil || !strings.Contains(err.Error(), "object table") {
				t.Fatalf("after %d insertions: err = %v, want the table's limit", inserted, err)
			}
			if inserted == 0 || uint64(db.NO()) > slotLimit || uint64(len(db.refs)) > slotLimit {
				t.Fatalf("%d insertions, %d OIDs, %d slots under a limit of %d", inserted, db.NO(), len(db.refs), slotLimit)
			}
			if db.NumLive() != p.NO+inserted {
				t.Fatalf("live = %d, want %d", db.NumLive(), p.NO+inserted)
			}
			// CheckDatabase also compares the live count with the store's:
			// the refused insertion created no object.
			if err := CheckDatabase(db); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestObjectTableGrowthMatchesModel runs 2 000 seeded insertions and
// deletions on a 50-object database, so the table's columns reallocate
// several times, and checks the table against a map-based model of the
// graph updated beside the calls.
func TestObjectTableGrowthMatchesModel(t *testing.T) {
	p := genericSmall()
	p.NO, p.SupRef = 50, 50
	db := MustGenerate(p)

	type object struct {
		class int
		refs  []backend.OID
		back  []backend.OID
	}
	model := make(map[backend.OID]*object)
	var live []backend.OID // ascending
	for _, oid := range db.LiveOIDs() {
		class, _ := db.ClassOf(oid)
		model[oid] = &object{class: class, refs: refsOf(db, oid), back: slices.Clone(db.BackRef(oid))}
		live = append(live, oid)
	}
	compare := func(call int) {
		t.Helper()
		if err := CheckDatabase(db); err != nil {
			t.Fatalf("call %d: %v", call, err)
		}
		if !slices.Equal(db.LiveOIDs(), live) {
			t.Fatalf("call %d: live set differs from the model", call)
		}
		for oid, o := range model {
			class, _ := db.ClassOf(oid)
			if class != o.class || !slices.Equal(refsOf(db, oid), o.refs) || !slices.Equal(db.BackRef(oid), o.back) {
				t.Fatalf("call %d: object %d is class %d refs %v back %v, model says %d %v %v",
					call, oid, class, refsOf(db, oid), db.BackRef(oid), o.class, o.refs, o.back)
			}
		}
	}
	removeFirst := func(s []backend.OID, v backend.OID) []backend.OID {
		if i := slices.Index(s, v); i >= 0 {
			return slices.Delete(s, i, i+1)
		}
		return s
	}

	src, pick := lewis.New(4242), lewis.New(17)
	grows, lastCap := 0, cap(db.refs)
	for call := 1; call <= 2000; call++ {
		if len(live) < 10 || pick.Bernoulli(0.55) {
			oid, err := db.InsertObject(src)
			if err != nil {
				t.Fatal(err)
			}
			// The new object's class and slots are the database's draws;
			// every later change to them, and every back-reference, is
			// the model's own.
			class, _ := db.ClassOf(oid)
			o := &object{class: class, refs: refsOf(db, oid)}
			model[oid] = o
			live = append(live, oid)
			for _, r := range o.refs {
				if r != backend.NilOID {
					model[r].back = append(model[r].back, oid)
				}
			}
		} else {
			victim := live[pick.Intn(len(live))]
			for _, r := range model[victim].refs {
				if target := model[r]; target != nil {
					target.back = removeFirst(target.back, victim)
				}
			}
			for _, from := range model[victim].back {
				if f := model[from]; f != nil {
					if k := slices.Index(f.refs, victim); k >= 0 {
						f.refs[k] = backend.NilOID
					}
				}
			}
			delete(model, victim)
			live = removeFirst(live, victim)
			if err := db.DeleteObject(victim); err != nil {
				t.Fatal(err)
			}
		}
		if cap(db.refs) != lastCap {
			grows, lastCap = grows+1, cap(db.refs)
		}
		if call%100 == 0 {
			compare(call)
		}
	}
	if grows < 3 {
		t.Fatalf("the slot table reallocated %d times, want several", grows)
	}
}

// oldObject and oldPersisted are the saved-file shape of the object graph
// from before the object table, one record per live object: Load must
// keep reading such files, and Save must keep writing them.
type oldObject struct {
	OID     backend.OID
	Class   int
	ORef    []backend.OID
	BackRef []backend.OID
}

type oldPersisted struct {
	Params  Params
	Classes []*Class
	Objects []*oldObject
	MaxOID  int
	Backend string
	Image   *backend.Image
}

// churned returns a small database that has seen insertions and
// deletions, so the saved form has deleted OIDs below MaxOID.
func churned(t *testing.T) *Database {
	t.Helper()
	p := genericSmall()
	p.NO, p.SupRef = 200, 200
	db := MustGenerate(p)
	src := lewis.New(8)
	for i := 0; i < 12; i++ {
		if _, err := db.InsertObject(src); err != nil {
			t.Fatal(err)
		}
	}
	for oid := backend.OID(7); oid < 150; oid += 9 {
		if err := db.DeleteObject(oid); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestLoadReadsOldFileShape(t *testing.T) {
	db := churned(t)
	img, err := db.Store.(backend.Snapshotter).Image()
	if err != nil {
		t.Fatal(err)
	}
	old := oldPersisted{Params: db.P, Classes: db.Schema.Classes[1:], MaxOID: db.NO(), Backend: db.P.backendName(), Image: img}
	for _, oid := range db.LiveOIDs() {
		class, _ := db.ClassOf(oid)
		old.Objects = append(old.Objects, &oldObject{OID: oid, Class: class, ORef: refsOf(db, oid), BackRef: db.BackRef(oid)})
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(old); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NO() != db.NO() || loaded.NumLive() != db.NumLive() {
		t.Fatalf("loaded %d OIDs, %d live; saved %d, %d", loaded.NO(), loaded.NumLive(), db.NO(), db.NumLive())
	}
	for oid := backend.OID(0); oid <= backend.OID(db.NO()); oid++ {
		ca, la := db.ClassOf(oid)
		cb, lb := loaded.ClassOf(oid)
		if la != lb || ca != cb || !slices.Equal(refsOf(db, oid), refsOf(loaded, oid)) ||
			!slices.Equal(db.BackRef(oid), loaded.BackRef(oid)) {
			t.Fatalf("object %d differs after loading the old shape", oid)
		}
	}
}

func TestSaveWritesOldFileShape(t *testing.T) {
	db := churned(t)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var old oldPersisted
	if err := gob.NewDecoder(&buf).Decode(&old); err != nil {
		t.Fatal(err)
	}
	if old.MaxOID != db.NO() || len(old.Objects) != db.NumLive() || old.Image == nil {
		t.Fatalf("MaxOID %d with %d records, want %d with %d", old.MaxOID, len(old.Objects), db.NO(), db.NumLive())
	}
	for i, o := range old.Objects {
		class, _ := db.ClassOf(o.OID)
		if o.OID != db.LiveOIDs()[i] || o.Class != class || !slices.Equal(o.ORef, refsOf(db, o.OID)) ||
			!slices.Equal(o.BackRef, db.BackRef(o.OID)) {
			t.Fatalf("record %d (object %d) differs from the table", i, o.OID)
		}
	}
}
