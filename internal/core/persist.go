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
// Classes and Objects are stored without their nil zeroth entries (gob
// rejects nil pointers inside slices).
type persisted struct {
	Params Params
	// Classes is Schema.Classes without the nil zeroth entry.
	Classes []*Class
	// Objects holds only live objects (deleted slots are nil in memory
	// and gob rejects nil pointers inside slices); MaxOID restores the
	// slice extent.
	Objects []*Object
	MaxOID  int
	// Backend is the driver the image was captured from (and must be
	// restored with); Image is its serialized durable state.
	Backend string
	Image   *backend.Image
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
	live := make([]*Object, 0, db.NumLive())
	for i := 1; i < len(db.Objects); i++ {
		if db.Objects[i] != nil {
			live = append(live, db.Objects[i])
		}
	}
	enc := gob.NewEncoder(w)
	return enc.Encode(persisted{
		Params:  db.P,
		Classes: db.Schema.Classes[1:],
		Objects: live,
		MaxOID:  len(db.Objects) - 1,
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
	objects := make([]*Object, p.MaxOID+1)
	for _, o := range p.Objects {
		if o == nil || o.OID == backend.NilOID || int(o.OID) > p.MaxOID {
			return nil, fmt.Errorf("ocb: corrupt object table in saved database")
		}
		objects[o.OID] = o
	}
	db = &Database{
		P:       p.Params,
		Schema:  &Schema{Classes: append([]*Class{nil}, p.Classes...)},
		Objects: objects,
		Store:   st,
	}
	db.initLive()
	if err := CheckDatabase(db); err != nil {
		return nil, fmt.Errorf("ocb: loaded database failed integrity check: %w", err)
	}
	return db, nil
}
