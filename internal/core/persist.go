package core

import (
	"encoding/gob"
	"fmt"
	"io"

	"ocb/internal/backend"
	"ocb/internal/lewis"
)

// persisted is the on-wire form of a generated database: the parameters
// (including the distribution values, registered with gob below), the
// schema, the object graph, and the store image carrying placement.
// Classes are stored without the nil zeroth entry (gob rejects nil
// pointers inside slices).
type persisted struct {
	Params Params
	// Classes is Schema.Classes without the nil zeroth entry.
	Classes []*Class
	// Objects holds one record per live object; MaxOID restores the
	// table's extent past deleted OIDs.
	Objects []*savedObject
	MaxOID  int
	// Backend is the driver the image was captured from (and must be
	// restored with); Image is its serialized durable state.
	Backend string
	Image   *backend.Image
}

// savedObject is one live object of the object table, in the record
// shape (and gob field names) the file format has always used.
type savedObject struct {
	OID     backend.OID
	Class   int
	ORef    []backend.OID
	BackRef []backend.OID
}

func init() {
	// The Params distributions are interface-typed; gob needs the concrete
	// types announced once.
	gob.Register(lewis.Uniform{})
	gob.Register(lewis.Constant{})
	gob.Register(&lewis.RoundRobin{})
	gob.Register(&lewis.Zipf{})
	gob.Register(lewis.Normal{})
	gob.Register(lewis.NegExp{})
	gob.Register(lewis.RefZone{})
	gob.Register(lewis.SelfSimilar{})
}

// Save serializes the database — schema, object graph and physical
// placement — so an expensive generation can be reused across benchmark
// processes. Dirty pages are flushed as part of imaging. Saving requires
// the backend.Snapshotter capability; on backends without it (flatmem)
// the error wraps backend.ErrNotSupported.
func (db *Database) Save(w io.Writer) error {
	snap, ok := db.Store.(backend.Snapshotter)
	if !ok {
		return fmt.Errorf("ocb: saving backend %q: %w: persistence", db.P.backendName(), backend.ErrNotSupported)
	}
	img, err := snap.Image()
	if err != nil {
		return fmt.Errorf("ocb: imaging store: %w", err)
	}
	live := make([]*savedObject, 0, db.NumLive())
	for _, oid := range db.LiveOIDs() {
		slots := db.slots(oid)
		o := &savedObject{OID: oid, Class: int(db.class[oid]), ORef: make([]backend.OID, len(slots)), BackRef: db.backRefs[oid]}
		for k, r := range slots {
			o.ORef[k] = backend.OID(r)
		}
		live = append(live, o)
	}
	enc := gob.NewEncoder(w)
	return enc.Encode(persisted{
		Params:  db.P,
		Classes: db.Schema.Classes[1:],
		Objects: live,
		MaxOID:  db.NO(),
		Backend: db.P.backendName(),
		Image:   img,
	})
}

// Load rebuilds a database saved with Save. The restored store starts
// with a cold cache and zeroed statistics; the object graph, schema and
// placement are bit-identical to the saved ones. Every id the file
// carries is checked before it sizes or indexes a table, and a file that
// fails a check releases the restored store with the error.
func Load(r io.Reader) (db *Database, err error) {
	var p persisted
	if err := gob.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("ocb: decoding database: %w", err)
	}
	st, err := backend.Restore(p.Backend, p.Image)
	if err != nil {
		return nil, fmt.Errorf("ocb: restoring store: %w", err)
	}
	defer func() {
		if err != nil {
			_ = backend.Shutdown(st)
		}
	}()
	if p.MaxOID < 0 || backend.OID(p.MaxOID) >= p.Image.NextOID {
		return nil, fmt.Errorf("ocb: corrupt saved database: MaxOID %d outside [0, %d)", p.MaxOID, p.Image.NextOID)
	}
	if uint64(p.MaxOID) > slotLimit {
		return nil, fmt.Errorf("ocb: corrupt saved database: MaxOID %d passes the object table's limit", p.MaxOID)
	}
	db = &Database{
		P:        p.Params,
		Schema:   &Schema{Classes: append([]*Class{nil}, p.Classes...)},
		Store:    st,
		class:    make([]int32, p.MaxOID+1),
		refAt:    make([]uint32, p.MaxOID+2),
		backRefs: make([][]backend.OID, p.MaxOID+1),
	}
	if err := db.fill(p.Objects); err != nil {
		return nil, fmt.Errorf("ocb: corrupt object table in saved database: %w", err)
	}
	db.initLive()
	if err := CheckDatabase(db); err != nil {
		return nil, fmt.Errorf("ocb: loaded database failed integrity check: %w", err)
	}
	return db, nil
}

// fill builds the object table of a loaded database from its saved
// records, checking every id and slot count before it indexes the table.
// Cross-object invariants (targets' classes, BackRef symmetry) are left
// to CheckDatabase.
func (db *Database) fill(objects []*savedObject) error {
	for _, o := range objects {
		if o == nil || o.OID == backend.NilOID || o.OID >= backend.OID(len(db.class)) {
			return fmt.Errorf("object id out of range")
		}
		c := db.Schema.Class(o.Class)
		if c == nil || len(o.ORef) != c.MaxNRef {
			return fmt.Errorf("object %d: class %d with %d slots", o.OID, o.Class, len(o.ORef))
		}
		if db.class[o.OID] != 0 {
			return fmt.Errorf("object %d saved twice", o.OID)
		}
		db.class[o.OID] = int32(o.Class)
	}
	var total uint64
	for i, c := range db.class {
		db.refAt[i] = uint32(total)
		if c != 0 {
			total += uint64(db.Schema.Class(int(c)).MaxNRef)
		}
		if total > slotLimit {
			return fmt.Errorf("%d slots pass the object table's limit", total)
		}
	}
	db.refAt[len(db.class)] = uint32(total)
	db.refs = make([]uint32, total)
	for _, o := range objects {
		slots := db.slots(o.OID)
		for k, r := range o.ORef {
			if r >= backend.OID(len(db.class)) {
				return fmt.Errorf("object %d ref %d dangles (%d)", o.OID, k, r)
			}
			slots[k] = uint32(r)
		}
		db.backRefs[o.OID] = o.BackRef
	}
	return nil
}
