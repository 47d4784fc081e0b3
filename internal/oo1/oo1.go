// Package oo1 implements the OO1 benchmark ("Objects Operations 1", the
// Cattell benchmark) that Section 2.1 of the OCB paper describes, on the
// same store substrate as OCB itself.
//
// OO1's database is two classes: Part and Connection. Parts are composite
// elements connected through Connection objects to exactly three other
// parts; each connection references its source (From) and destination (To)
// part. Locality of reference is simulated by a reference zone: part #i is
// linked to parts with ids in [i-RefZone, i+RefZone] with probability 0.9,
// otherwise to a part chosen totally at random.
//
// The workload is three operations, each run NRuns times with response
// time measured per run: Lookup (1000 random parts), Traversal (depth-first
// from a random root through the Connect and To references, 7 hops, 3280
// parts with possible duplicates — reversible through From), and Insert
// (100 parts plus their connections, then commit). The package holds the
// op bodies and the Scenario that names them; timing and I/O accounting
// are the workload engine's.
//
// OO1 is both a baseline in its own right and the ancestor of DSTC-CluB
// (package club), whose Table 4 comparison OCB reproduces.
package oo1

import (
	"fmt"
	"sync"
	"time"

	"ocb/internal/backend"
	"ocb/internal/cluster"
	"ocb/internal/lewis"
	"ocb/internal/workload"
)

// Params sizes the OO1 database and workload.
type Params struct {
	// NumParts is the number of Part objects. Default 20000.
	NumParts int
	// ConnsPerPart is the out-degree of every part. Default 3.
	ConnsPerPart int
	// RefZone is the locality zone half-width in part ids. 0 means
	// NumParts/100 (the canonical "1% of the database" zone).
	RefZone int
	// PLocal is the probability a connection lands inside the zone.
	// Default 0.9.
	PLocal float64
	// PartSize and ConnSize are payload sizes in bytes. Default 50 each
	// (DSTC-CluB keeps object sizes constant at 50 bytes).
	PartSize, ConnSize int
	// Lookups is the number of parts accessed by one Lookup operation.
	// Default 1000.
	Lookups int
	// TraversalDepth is the hop count of one Traversal. Default 7.
	TraversalDepth int
	// Inserts is the number of parts added by one Insert. Default 100.
	Inserts int
	// NRuns is how many times each operation is repeated. Default 10.
	NRuns int

	// Backend selects the system-under-test driver ("" = "paged");
	// BackendOptions are driver-specific key=value settings. The geometry
	// fields below apply to paged backends and are ignored by others.
	Backend        string
	BackendOptions map[string]string
	PageSize       int
	BufferPages    int

	// Seed drives all generation and workload randomness.
	Seed int64
}

// DefaultParams returns the canonical OO1 configuration.
func DefaultParams() Params {
	return Params{
		NumParts:       20000,
		ConnsPerPart:   3,
		RefZone:        200,
		PLocal:         0.9,
		PartSize:       50,
		ConnSize:       50,
		Lookups:        1000,
		TraversalDepth: 7,
		Inserts:        100,
		NRuns:          10,
		PageSize:       4096,
		BufferPages:    512,
		Seed:           1991, // Cattell '91
	}
}

// Validate reports the first bad parameter.
func (p Params) Validate() error {
	switch {
	case p.NumParts < 2:
		return fmt.Errorf("oo1: NumParts = %d", p.NumParts)
	case p.ConnsPerPart < 1:
		return fmt.Errorf("oo1: ConnsPerPart = %d", p.ConnsPerPart)
	case p.RefZone < 0:
		return fmt.Errorf("oo1: RefZone = %d", p.RefZone)
	case p.PLocal < 0 || p.PLocal > 1:
		return fmt.Errorf("oo1: PLocal = %v", p.PLocal)
	case p.PartSize < 0 || p.ConnSize < 0:
		return fmt.Errorf("oo1: negative object size")
	case p.Lookups < 1 || p.TraversalDepth < 0 || p.Inserts < 0 || p.NRuns < 1:
		return fmt.Errorf("oo1: bad workload counts")
	}
	return nil
}

// Part is a composite element of the OO1 database.
type Part struct {
	OID backend.OID
	// ID is the part's dictionary id (locality is defined over ids).
	ID int
	// Out are the connections leaving this part (Connect references).
	Out []backend.OID
	// In are the connections arriving at this part (reverse direction).
	In []backend.OID
}

// Connection links two parts.
type Connection struct {
	OID  backend.OID
	From backend.OID // source part
	To   backend.OID // destination part
}

// Database is a generated OO1 object base.
type Database struct {
	P     Params
	Store backend.Backend
	// Parts is the dictionary, keyed by store OID.
	Parts map[backend.OID]*Part
	// ByID maps part id (1-based) to OID; ids are dense.
	ByID []backend.OID
	// Conns maps a connection OID to its record.
	Conns map[backend.OID]*Connection
	// GenTime is the database creation wall-clock time.
	GenTime time.Duration

	// mu guards the dictionaries: every Scenario op's Run holds it
	// through AccessStream.End, exclusively for insert.
	mu  sync.RWMutex
	src *lewis.Source
}

// Generate builds the OO1 database: all parts first (the "dictionary"),
// then for each part its ConnsPerPart connections, targets drawn with the
// reference-zone rule. A generation that fails releases the store it
// opened.
func Generate(p Params) (db *Database, err error) {
	//ocblint:allow determinism -- harness timing, not op logic
	start := time.Now()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.RefZone == 0 {
		p.RefZone = p.NumParts / 100
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
		P:     p,
		Store: st,
		Parts: make(map[backend.OID]*Part, p.NumParts),
		ByID:  make([]backend.OID, 1, p.NumParts+1),
		Conns: make(map[backend.OID]*Connection, p.NumParts*p.ConnsPerPart),
		src:   lewis.New(p.Seed),
	}

	// Step 1: create all the Part objects and store them into a dictionary.
	for i := 1; i <= p.NumParts; i++ {
		if _, err := db.newPart(); err != nil {
			return nil, fmt.Errorf("oo1: creating part %d: %w", i, err)
		}
	}
	// Step 2: for each part, randomly choose ConnsPerPart other parts and
	// create the associated connections.
	for i := 1; i <= p.NumParts; i++ {
		from := db.Parts[db.ByID[i]]
		for c := 0; c < p.ConnsPerPart; c++ {
			if _, err := db.connect(from); err != nil {
				return nil, err
			}
		}
	}
	if err := st.Commit(); err != nil {
		return nil, err
	}
	//ocblint:allow determinism -- harness timing, not op logic
	db.GenTime = time.Since(start)
	st.ResetStats()
	return db, nil
}

// newPart creates and registers a new part with the next dictionary id.
func (db *Database) newPart() (*Part, error) {
	oid, err := db.Store.Create(db.P.PartSize)
	if err != nil {
		return nil, err
	}
	part := &Part{OID: oid, ID: len(db.ByID)}
	db.Parts[oid] = part
	db.ByID = append(db.ByID, oid)
	return part, nil
}

// connect creates one connection from the given part to a target drawn by
// the reference-zone rule over the live database.
func (db *Database) connect(from *Part) (*Connection, error) {
	return db.connectTo(from, db.drawTarget(from.ID))
}

// connectTo creates one connection from the given part to the part with
// the given dictionary id.
func (db *Database) connectTo(from *Part, targetID int) (*Connection, error) {
	target := db.Parts[db.ByID[targetID]]
	oid, err := db.Store.Create(db.P.ConnSize)
	if err != nil {
		return nil, fmt.Errorf("oo1: creating connection: %w", err)
	}
	conn := &Connection{OID: oid, From: from.OID, To: target.OID}
	db.Conns[oid] = conn
	from.Out = append(from.Out, oid)
	target.In = append(target.In, oid)
	return conn, nil
}

// drawTargetFrom applies OO1's locality rule over the first n part ids,
// drawing from src: a Bernoulli(PLocal) trial picks the reference zone
// around center (clamped to [1, n]), otherwise uniform over [1, n].
func (db *Database) drawTargetFrom(src *lewis.Source, center, n int) int {
	p := db.P
	if src.Bernoulli(p.PLocal) {
		lo, hi := center-p.RefZone, center+p.RefZone
		if lo < 1 {
			lo = 1
		}
		if hi > n {
			hi = n
		}
		return src.IntRange(lo, hi)
	}
	return src.IntRange(1, n)
}

// drawTarget is drawTargetFrom over the live part count and the
// database's own generation stream.
func (db *Database) drawTarget(id int) int {
	return db.drawTargetFrom(db.src, id, db.NumParts())
}

// NumParts returns the current part count.
func (db *Database) NumParts() int { return len(db.ByID) - 1 }

// lookupOnce is the lookup op body: access p.Lookups parts selected at
// random over the first bound dictionary ids, drawn from src (the
// executing client's source), through the client's stream.
func (db *Database) lookupOnce(src *lewis.Source, bound int, s *workload.AccessStream) (int, error) {
	for i := 0; i < db.P.Lookups; i++ {
		if err := s.Visit(backend.NilOID, db.ByID[src.IntRange(1, bound)]); err != nil {
			return s.End(err)
		}
	}
	return s.End(nil)
}

// TraverseFrom is the traversal op body: depth-first from root through
// the Connect and To references (or In/From reversed when reverse is
// set) up to TraversalDepth hops — 3280 parts at the default depth,
// duplicates possible — faulting every part and connection through s and
// ending the stream before it returns. It returns the parts visited;
// ending the policy's transaction is the caller's step. Exported for the
// before/after clustering protocol (DSTC-CluB), which replays explicit
// roots.
func (db *Database) TraverseFrom(s *workload.AccessStream, root backend.OID, reverse bool) (int, error) {
	if _, ok := db.Parts[root]; !ok {
		return 0, fmt.Errorf("oo1: root %d is not a part", root)
	}
	n := 0
	var visit func(from, part backend.OID, depth int) error
	visit = func(from, oid backend.OID, depth int) error {
		if err := s.Visit(from, oid); err != nil {
			return err
		}
		n++
		if depth == 0 {
			return nil
		}
		part := db.Parts[oid]
		conns := part.Out
		if reverse {
			conns = part.In
		}
		for _, coid := range conns {
			// Crossing part -> connection -> part faults both objects.
			if err := s.Visit(oid, coid); err != nil {
				return err
			}
			conn := db.Conns[coid]
			next := conn.To
			if reverse {
				next = conn.From
			}
			if err := visit(coid, next, depth-1); err != nil {
				return err
			}
		}
		return nil
	}
	_, err := s.End(visit(backend.NilOID, root, db.P.TraversalDepth))
	return n, err
}

// insertOnce is the insert op body: add p.Inserts parts and their
// connections, then commit the changes. src is the inserting client's
// stream. n0 > 0 freezes the target universe to the first n0 parts (the
// scenario-build snapshot) and zones around a center drawn from src, so
// every draw is a pure function of the client's private stream and
// concurrent clients insert schedule-independently. n0 == 0 is live
// mode: targets zone around the new part's own id over the current part
// count, replaying the pre-engine benchmark draw for draw. Callers hold
// db.mu exclusively either way.
func (db *Database) insertOnce(src *lewis.Source, n0 int) (int, error) {
	n := 0
	for i := 0; i < db.P.Inserts; i++ {
		part, err := db.newPart()
		if err != nil {
			return n, err
		}
		n++
		for c := 0; c < db.P.ConnsPerPart; c++ {
			center, bound := part.ID, db.NumParts()
			if n0 > 0 {
				bound = n0
				center = src.IntRange(1, n0)
			}
			if _, err := db.connectTo(part, db.drawTargetFrom(src, center, bound)); err != nil {
				return n, err
			}
			n++
		}
	}
	return n, db.Store.Commit()
}

// Scenario expresses the OO1 benchmark as a unified workload-engine spec:
// the four operations (lookup, traversal, reverse traversal, insert) each
// NRuns times in fixed-program mode, or as a weighted mix when the caller
// sets Measured. A single client continues the database's own generation
// stream, so CLIENTN=1 runs replay exactly the pre-engine benchmark; a
// multi-client run gives every client seed-derived private streams — one
// for op sampling and reads, one for inserts — and freezes the draw
// universe at the scenario-build part count, so each client's operation
// stream is a pure function of its seed regardless of scheduling. The
// suite's in-memory dictionaries are not concurrency-safe, so every op
// takes db.mu in its Run (shared for reads, exclusive for inserts).
func (db *Database) Scenario(policy cluster.Policy, clients int) *workload.Spec {
	if clients > 1 && policy != nil {
		policy = cluster.Synchronize(policy)
	}
	end := func(n int, err error) (int, error) {
		if err == nil && policy != nil {
			policy.EndTransaction()
		}
		return n, err
	}
	// n0 freezes the read-root and insert-target universe at the
	// scenario-build part count when several clients run: draws become
	// pure functions of each client's private stream, independent of how
	// concurrent inserts interleave. A single client keeps the live count
	// (and the pre-engine replay).
	n0 := 0
	if clients > 1 {
		n0 = db.NumParts()
	}
	span := func() int {
		if n0 > 0 {
			return n0
		}
		return db.NumParts()
	}
	// ins are the per-client insert streams. Insert draws cannot ride the
	// op-sampling streams — the engine samples ctx.Src outside db.mu,
	// so sharing it with bodies drawing under the lock would race — and
	// they cannot share db.src across clients, or the op stream each
	// client sees would depend on the others' schedules. Client 0 of a
	// single-client run continues the generation stream instead, so
	// CLIENTN=1 goldens replay the pre-engine benchmark bit for bit.
	ins := make([]*lewis.Source, max(clients, 1))
	for c := range ins {
		ins[c] = lewis.New(db.P.Seed + 15485863 + int64(c)*104729)
	}
	if clients <= 1 {
		ins[0] = db.src
	}
	nruns := db.P.NRuns
	stream := func(ctx *workload.Ctx) *workload.AccessStream { return ctx.State.(*workload.AccessStream) }
	ops := []workload.Op{
		{Name: "lookup", Weight: 1, Count: nruns, Run: func(ctx *workload.Ctx) (int, error) {
			db.mu.RLock()
			defer db.mu.RUnlock()
			return end(db.lookupOnce(ctx.Src, span(), stream(ctx)))
		}},
		{Name: "traversal", Weight: 1, Count: nruns, Run: func(ctx *workload.Ctx) (int, error) {
			db.mu.RLock()
			defer db.mu.RUnlock()
			root := db.ByID[ctx.Src.IntRange(1, span())]
			return end(db.TraverseFrom(stream(ctx), root, false))
		}},
		{Name: "reverse-traversal", Weight: 1, Count: nruns, Run: func(ctx *workload.Ctx) (int, error) {
			db.mu.RLock()
			defer db.mu.RUnlock()
			root := db.ByID[ctx.Src.IntRange(1, span())]
			return end(db.TraverseFrom(stream(ctx), root, true))
		}},
		{Name: "insert", Weight: 1, Count: nruns, Run: func(ctx *workload.Ctx) (int, error) {
			db.mu.Lock()
			defer db.mu.Unlock()
			return end(db.insertOnce(ins[ctx.Client], n0))
		}},
	}
	return &workload.Spec{
		Name:        "oo1",
		Description: "OO1 (Cattell): lookup, traversal, reverse traversal, insert over the parts/connections database",
		Clients:     clients,
		Seed:        db.P.Seed,
		Backend:     db.Store,
		Ops:         ops,
		// A single client continues the database's own generation stream
		// (CLIENTN=1 runs replay the pre-engine benchmark bit for bit).
		// Multi-client runs derive every client's source instead: the
		// engine samples mixed-mode ops from ctx.Src outside db.mu, and
		// sharing db.src with the insert bodies (which draw from it under
		// the exclusive lock) would race.
		Source: func(c int) *lewis.Source {
			if c == 0 && clients <= 1 {
				return db.src
			}
			return lewis.New(db.P.Seed + int64(c)*104729)
		},
		NewClient: func(int, *lewis.Source) any {
			return &workload.AccessStream{Store: db.Store, Policy: policy}
		},
	}
}

// AllOIDs enumerates parts then connections, the order whole-database
// clustering policies relocate in.
func (db *Database) AllOIDs() []backend.OID {
	out := make([]backend.OID, 0, len(db.Parts)+len(db.Conns))
	for i := 1; i <= db.NumParts(); i++ {
		out = append(out, db.ByID[i])
	}
	for oid := range db.Conns {
		out = append(out, oid)
	}
	return out
}

// Check verifies the database invariants: every part has exactly
// ConnsPerPart outgoing connections, connection endpoints exist, and In
// lists mirror Out lists.
func Check(db *Database) error {
	if len(db.Parts) != db.NumParts() {
		return fmt.Errorf("oo1: dictionary holds %d parts, ByID %d", len(db.Parts), db.NumParts())
	}
	for i := 1; i <= db.NumParts(); i++ {
		part := db.Parts[db.ByID[i]]
		if part == nil {
			return fmt.Errorf("oo1: part id %d missing", i)
		}
		if part.ID != i {
			return fmt.Errorf("oo1: part id %d recorded as %d", i, part.ID)
		}
		if len(part.Out) != db.P.ConnsPerPart {
			return fmt.Errorf("oo1: part %d has %d connections, want %d", i, len(part.Out), db.P.ConnsPerPart)
		}
		for _, coid := range part.Out {
			conn, ok := db.Conns[coid]
			if !ok {
				return fmt.Errorf("oo1: part %d has dangling connection %d", i, coid)
			}
			if conn.From != part.OID {
				return fmt.Errorf("oo1: connection %d From mismatch", coid)
			}
			target, ok := db.Parts[conn.To]
			if !ok {
				return fmt.Errorf("oo1: connection %d To is not a part", coid)
			}
			found := false
			for _, in := range target.In {
				if in == coid {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("oo1: connection %d missing from target's In list", coid)
			}
		}
		if !db.Store.Exists(part.OID) {
			return fmt.Errorf("oo1: part %d not stored", i)
		}
	}
	return nil
}
