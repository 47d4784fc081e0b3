// Package oo7 implements the OO7 benchmark (Carey, DeWitt & Naughton,
// 1993/94) described in Section 2.3 of the OCB paper, on the shared store
// substrate.
//
// The database is the OO7 design library: a module with an assembly
// hierarchy (complex assemblies of fan-out 3 over AssmLevels levels; the
// leaves are base assemblies), each base assembly referencing CompPerAssm
// composite parts from a shared library of NumComp composite parts. A
// composite part owns a documentation object and a graph of NumAtomic
// atomic parts wired by connection objects (each atomic part has
// ConnPerAtomic outgoing connections to atomic parts of the same
// composite).
//
// The workload implements the benchmark's three operation groups:
//
//   - Traversals: T1 (raw full traversal), T2a/T2b (traversal with update
//     of one/all atomic parts per composite), T3a (traversal updating the
//     build date), T6 (sparse traversal touching only root atomic parts),
//     T8/T9 (scan one document / check every document's title).
//   - Queries: Q1 (exact-match lookup of 10 random atomic parts), Q2/Q3
//     (1% and 10% build-date range scans), Q4 (documents by title plus
//     owning composite root), Q5 (base assemblies whose composite parts
//     are newer than the assembly), Q7 (full atomic-part scan), Q8
//     (documents joined with their composite's atomic parts).
//   - Structural modifications: insert-delete, one round trip (a new
//     composite part wired to random base assemblies, then removed).
//
// The package holds the op bodies and the Scenario that names them;
// timing and I/O accounting are the workload engine's.
package oo7

import (
	"fmt"
	"sync"
	"time"

	"ocb/internal/backend"
	"ocb/internal/cluster"
	"ocb/internal/lewis"
	"ocb/internal/workload"
)

// Params sizes the OO7 database ("small" configuration by default).
type Params struct {
	// NumComp is the number of composite parts in the library.
	// Default 500 (small).
	NumComp int
	// NumAtomic is the number of atomic parts per composite. Default 20.
	NumAtomic int
	// ConnPerAtomic is the out-degree of each atomic part. Default 3.
	ConnPerAtomic int
	// AssmLevels is the depth of the assembly hierarchy. Default 7.
	AssmLevels int
	// AssmFanout is the fan-out of complex assemblies. Default 3.
	AssmFanout int
	// CompPerAssm is the number of composite parts each base assembly
	// references. Default 3.
	CompPerAssm int
	// AtomicSize, ConnSize, CompSize, AssmSize, DocSize are payload sizes.
	// Defaults 100, 50, 150, 100, 2000.
	AtomicSize, ConnSize, CompSize, AssmSize, DocSize int
	// DateRange is the build-date attribute domain. Default 100000.
	DateRange int

	// Backend selects the system-under-test driver ("" = "paged");
	// BackendOptions are driver-specific settings. The geometry fields
	// apply to paged backends and are ignored by others.
	Backend        string
	BackendOptions map[string]string
	PageSize       int
	BufferPages    int
	Seed           int64
}

// DefaultParams returns the OO7 small configuration.
func DefaultParams() Params {
	return Params{
		NumComp:       500,
		NumAtomic:     20,
		ConnPerAtomic: 3,
		AssmLevels:    7,
		AssmFanout:    3,
		CompPerAssm:   3,
		AtomicSize:    100,
		ConnSize:      50,
		CompSize:      150,
		AssmSize:      100,
		DocSize:       2000,
		DateRange:     100000,
		PageSize:      4096,
		BufferPages:   512,
		Seed:          1993,
	}
}

// Validate reports the first bad parameter.
func (p Params) Validate() error {
	switch {
	case p.NumComp < 1 || p.NumAtomic < 1 || p.ConnPerAtomic < 0:
		return fmt.Errorf("oo7: bad composite shape")
	case p.AssmLevels < 1 || p.AssmFanout < 1 || p.CompPerAssm < 1:
		return fmt.Errorf("oo7: bad assembly shape")
	case p.AtomicSize < 0 || p.ConnSize < 0 || p.CompSize < 0 || p.AssmSize < 0 || p.DocSize < 0:
		return fmt.Errorf("oo7: negative size")
	case p.DateRange < 1:
		return fmt.Errorf("oo7: DateRange = %d", p.DateRange)
	}
	return nil
}

// AtomicPart is a node of a composite part's graph.
type AtomicPart struct {
	OID       backend.OID
	ID        int // dense id across the database
	BuildDate int
	Comp      int           // owning composite (index into Comps)
	Out       []backend.OID // connection objects
	In        []backend.OID
}

// Connection wires two atomic parts.
type Connection struct {
	OID      backend.OID
	From, To backend.OID
}

// Document is a composite part's documentation.
type Document struct {
	OID   backend.OID
	Title int // synthetic title key
	Comp  int
}

// CompositePart is a library element.
type CompositePart struct {
	OID       backend.OID
	ID        int
	BuildDate int
	Root      backend.OID   // root atomic part
	Atomics   []backend.OID // all atomic parts
	Doc       backend.OID
	UsedBy    []backend.OID // base assemblies referencing this composite
}

// Assembly is a node of the assembly hierarchy.
type Assembly struct {
	OID       backend.OID
	ID        int
	Level     int
	BuildDate int
	Parent    backend.OID
	// Sub holds child assemblies for complex assemblies; Comps holds the
	// composite references for base assemblies.
	Sub   []backend.OID
	Comps []backend.OID
}

// Database is a generated OO7 object base.
type Database struct {
	P     Params
	Store backend.Backend

	Comps    []*CompositePart // dense, index = ID
	compIdx  map[backend.OID]int
	Atomics  map[backend.OID]*AtomicPart
	AtomicID []backend.OID // dense id -> OID
	Conns    map[backend.OID]*Connection
	Docs     map[backend.OID]*Document
	Assms    map[backend.OID]*Assembly
	RootAssm backend.OID
	BaseAssm []backend.OID

	GenTime time.Duration
	src     *lewis.Source
}

// Generate builds the OO7 database: the composite-part library first
// (atomic graphs, connections, documents), then the assembly hierarchy. A
// generation that fails releases the store it opened.
func Generate(p Params) (db *Database, err error) {
	//ocblint:allow determinism -- harness timing, not op logic
	start := time.Now()
	if err := p.Validate(); err != nil {
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
		P:       p,
		Store:   st,
		compIdx: make(map[backend.OID]int),
		Atomics: make(map[backend.OID]*AtomicPart),
		Conns:   make(map[backend.OID]*Connection),
		Docs:    make(map[backend.OID]*Document),
		Assms:   make(map[backend.OID]*Assembly),
		src:     lewis.New(p.Seed),
	}

	for i := 0; i < p.NumComp; i++ {
		if _, err := db.newComposite(db.src); err != nil {
			return nil, err
		}
	}

	// Assembly hierarchy: levels 1..AssmLevels, level AssmLevels holds the
	// base assemblies.
	root, err := db.buildAssembly(1, backend.NilOID)
	if err != nil {
		return nil, err
	}
	db.RootAssm = root

	if err := st.Commit(); err != nil {
		return nil, err
	}
	//ocblint:allow determinism -- harness timing, not op logic
	db.GenTime = time.Since(start)
	st.ResetStats()
	return db, nil
}

// newComposite creates one composite part: atomic graph, connections,
// document. Every draw comes from src over a fixed-size range (the date
// domain, the new composite's own atomics), so a composite's shape is a
// pure function of the stream that built it.
func (db *Database) newComposite(src *lewis.Source) (*CompositePart, error) {
	p := db.P
	comp := &CompositePart{ID: len(db.Comps), BuildDate: src.Intn(p.DateRange)}

	oid, err := db.Store.Create(p.CompSize)
	if err != nil {
		return nil, fmt.Errorf("oo7: composite: %w", err)
	}
	comp.OID = oid

	atomics := make([]*AtomicPart, p.NumAtomic)
	for i := range atomics {
		aoid, err := db.Store.Create(p.AtomicSize)
		if err != nil {
			return nil, fmt.Errorf("oo7: atomic: %w", err)
		}
		a := &AtomicPart{
			OID:       aoid,
			ID:        len(db.AtomicID),
			BuildDate: src.Intn(p.DateRange),
			Comp:      comp.ID,
		}
		db.Atomics[aoid] = a
		db.AtomicID = append(db.AtomicID, aoid)
		atomics[i] = a
		comp.Atomics = append(comp.Atomics, aoid)
	}
	comp.Root = atomics[0].OID
	for _, a := range atomics {
		for c := 0; c < p.ConnPerAtomic; c++ {
			target := atomics[src.Intn(len(atomics))]
			coid, err := db.Store.Create(p.ConnSize)
			if err != nil {
				return nil, fmt.Errorf("oo7: connection: %w", err)
			}
			conn := &Connection{OID: coid, From: a.OID, To: target.OID}
			db.Conns[coid] = conn
			a.Out = append(a.Out, coid)
			target.In = append(target.In, coid)
		}
	}
	doid, err := db.Store.Create(p.DocSize)
	if err != nil {
		return nil, fmt.Errorf("oo7: document: %w", err)
	}
	db.Docs[doid] = &Document{OID: doid, Title: comp.ID, Comp: comp.ID}
	comp.Doc = doid

	db.Comps = append(db.Comps, comp)
	db.compIdx[comp.OID] = comp.ID
	return comp, nil
}

// buildAssembly recursively creates the hierarchy below one assembly.
func (db *Database) buildAssembly(level int, parent backend.OID) (backend.OID, error) {
	p := db.P
	oid, err := db.Store.Create(p.AssmSize)
	if err != nil {
		return backend.NilOID, fmt.Errorf("oo7: assembly: %w", err)
	}
	a := &Assembly{
		OID:       oid,
		ID:        len(db.Assms) + 1,
		Level:     level,
		BuildDate: db.src.Intn(p.DateRange),
		Parent:    parent,
	}
	db.Assms[oid] = a
	if level == p.AssmLevels {
		// Base assembly: reference CompPerAssm random composite parts.
		for i := 0; i < p.CompPerAssm; i++ {
			comp := db.Comps[db.src.Intn(len(db.Comps))]
			a.Comps = append(a.Comps, comp.OID)
			comp.UsedBy = append(comp.UsedBy, oid)
		}
		db.BaseAssm = append(db.BaseAssm, oid)
		return oid, nil
	}
	for i := 0; i < p.AssmFanout; i++ {
		sub, err := db.buildAssembly(level+1, oid)
		if err != nil {
			return backend.NilOID, err
		}
		a.Sub = append(a.Sub, sub)
	}
	return oid, nil
}

// NumAtomics returns the atomic-part count.
func (db *Database) NumAtomics() int { return len(db.AtomicID) }

// traverseComposite runs a DFS over a composite's atomic graph from its
// root atomic part, visiting each atomic part once (OO7's T1 semantics).
// update selects how many visited atomics are updated: 0 none, 1 the
// root only (T2a), -1 all (T2b). The visit set is the client's ctx.Seen,
// sized by the composite's last atomic: a composite's atomics are created
// consecutively, and OIDs are issued in creation order.
func (db *Database) traverseComposite(ctx *workload.Ctx, s *workload.AccessStream, comp *CompositePart, update int) error {
	ctx.Seen.Reset(int(comp.Atomics[len(comp.Atomics)-1]) + 1)
	first := true
	var dfs func(aoid backend.OID) error
	dfs = func(aoid backend.OID) error {
		if !ctx.Seen.Add(aoid) {
			return nil
		}
		if err := s.Visit(comp.OID, aoid); err != nil {
			return err
		}
		if update == -1 || (update == 1 && first) {
			// The update reaches the store after the faults before it.
			if err := s.Flush(); err != nil {
				return err
			}
			if err := db.Store.Update(aoid); err != nil {
				return err
			}
		}
		first = false
		a := db.Atomics[aoid]
		for _, coid := range a.Out {
			if err := s.Visit(aoid, coid); err != nil {
				return err
			}
			if err := dfs(db.Conns[coid].To); err != nil {
				return err
			}
		}
		return nil
	}
	return dfs(comp.Root)
}

// traversalBody implements the shared skeleton of T1/T2/T3/T6.
func (db *Database) traversalBody(ctx *workload.Ctx, s *workload.AccessStream, update int, sparse bool) error {
	var walk func(aoid backend.OID) error
	walk = func(aoid backend.OID) error {
		a := db.Assms[aoid]
		if err := s.Visit(a.Parent, aoid); err != nil {
			return err
		}
		for _, sub := range a.Sub {
			if err := walk(sub); err != nil {
				return err
			}
		}
		for _, compOID := range a.Comps {
			comp := db.Comps[db.compByOID(compOID)]
			if err := s.Visit(aoid, comp.OID); err != nil {
				return err
			}
			if sparse {
				// T6: visit the composite and its root atomic only.
				if err := s.Visit(comp.OID, comp.Root); err != nil {
					return err
				}
				continue
			}
			if err := db.traverseComposite(ctx, s, comp, update); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(db.RootAssm); err != nil || update == 0 {
		return err
	}
	if err := s.Flush(); err != nil {
		return err
	}
	return db.Store.Commit()
}

// compByOID maps a composite OID back to its index.
func (db *Database) compByOID(oid backend.OID) int {
	if i, ok := db.compIdx[oid]; ok {
		return i
	}
	return -1
}

// q1Body looks up 10 random atomic parts by id, drawn over the first
// nAtomic dense ids. Ids whose atomic was structurally deleted miss (the
// dictionary keeps dense ids).
func (db *Database) q1Body(src *lewis.Source, s *workload.AccessStream, nAtomic int) error {
	for i := 0; i < 10; i++ {
		oid := db.AtomicID[src.Intn(nAtomic)]
		if db.Atomics[oid] == nil {
			continue
		}
		if err := s.Visit(backend.NilOID, oid); err != nil {
			return err
		}
	}
	return nil
}

// rangeBody scans atomic parts whose build date falls in a window
// covering frac of the domain.
func (db *Database) rangeBody(src *lewis.Source, s *workload.AccessStream, frac float64) error {
	width := int(float64(db.P.DateRange) * frac)
	lo := src.Intn(db.P.DateRange - width + 1)
	hi := lo + width
	for _, oid := range db.AtomicID {
		a := db.Atomics[oid]
		if a == nil || a.BuildDate < lo || a.BuildDate >= hi {
			continue
		}
		if err := s.Visit(backend.NilOID, oid); err != nil {
			return err
		}
	}
	return nil
}

// q4Body fetches 10 random documents by title and the root atomic part
// of each owning composite, drawn over the first nComp library ids.
func (db *Database) q4Body(src *lewis.Source, s *workload.AccessStream, nComp int) error {
	for i := 0; i < 10; i++ {
		comp := db.Comps[src.Intn(nComp)]
		if comp == nil { // structurally deleted composite: the lookup misses
			continue
		}
		if err := s.Visit(backend.NilOID, comp.Doc); err != nil {
			return err
		}
		if err := s.Visit(comp.Doc, comp.Root); err != nil {
			return err
		}
	}
	return nil
}

// q5Body finds base assemblies using a composite part with a build date
// later than the assembly's.
func (db *Database) q5Body(s *workload.AccessStream) error {
	for _, boid := range db.BaseAssm {
		b := db.Assms[boid]
		if err := s.Visit(backend.NilOID, boid); err != nil {
			return err
		}
		for _, compOID := range b.Comps {
			comp := db.Comps[db.compByOID(compOID)]
			if err := s.Visit(boid, compOID); err != nil {
				return err
			}
			_ = comp.BuildDate > b.BuildDate // the predicate result set
		}
	}
	return nil
}

// q7Body scans every live atomic part.
func (db *Database) q7Body(s *workload.AccessStream) error {
	for _, oid := range db.AtomicID {
		if db.Atomics[oid] == nil {
			continue
		}
		if err := s.Visit(backend.NilOID, oid); err != nil {
			return err
		}
	}
	return nil
}

// The document-centric operations: the traversal group's T8/T9 touch the
// documentation objects hanging off composite parts, and Q8 is the join
// between documents and atomic parts.

// t8Body scans the documentation of one random composite part (the
// document object is up to DocSize bytes, typically spanning pages),
// drawn over the first nComp library ids.
func (db *Database) t8Body(src *lewis.Source, s *workload.AccessStream, nComp int) error {
	comp := db.Comps[src.Intn(nComp)]
	if comp == nil {
		return nil
	}
	return s.Visit(backend.NilOID, comp.Doc)
}

// t9Body checks the title of every document (a metadata-only pass over
// the documentation set, in id order for determinism).
func (db *Database) t9Body(s *workload.AccessStream) error {
	for _, comp := range db.Comps {
		if comp == nil {
			continue
		}
		if err := s.Visit(backend.NilOID, comp.Doc); err != nil {
			return err
		}
	}
	return nil
}

// q8Body joins documents with the atomic parts of their composite: for
// every document, access the document then every atomic part whose id
// matches the composite (the benchmark's id-equality join).
func (db *Database) q8Body(s *workload.AccessStream) error {
	for _, comp := range db.Comps {
		if comp == nil {
			continue
		}
		if err := s.Visit(backend.NilOID, comp.Doc); err != nil {
			return err
		}
		for _, aoid := range comp.Atomics {
			if err := s.Visit(comp.Doc, aoid); err != nil {
				return err
			}
		}
	}
	return nil
}

// insertBody creates count new composite parts and wires each into ten
// random base assemblies, then commits. All draws come from src; the
// base-assembly set is fixed at generation, so with a private stream the
// insertion is schedule-independent (callers serialize insertions).
func (db *Database) insertBody(src *lewis.Source, count int) (ids []int, n int, err error) {
	for i := 0; i < count; i++ {
		comp, err := db.newComposite(src)
		if err != nil {
			return ids, n, err
		}
		ids = append(ids, comp.ID)
		n += 1 + len(comp.Atomics) + len(comp.Atomics)*db.P.ConnPerAtomic + 1
		for k := 0; k < 10 && k < len(db.BaseAssm); k++ {
			boid := db.BaseAssm[src.Intn(len(db.BaseAssm))]
			b := db.Assms[boid]
			b.Comps = append(b.Comps, comp.OID)
			comp.UsedBy = append(comp.UsedBy, boid)
			if err := db.Store.Update(boid); err != nil {
				return ids, n, err
			}
		}
	}
	return ids, n, db.Store.Commit()
}

// deleteBody removes the given composite parts (their atomics,
// connections and documents) and unwires them from assemblies, then
// commits.
func (db *Database) deleteBody(ids []int) (int, error) {
	n := 0
	for _, id := range ids {
		if id < 0 || id >= len(db.Comps) || db.Comps[id] == nil {
			return n, fmt.Errorf("no composite %d", id)
		}
		comp := db.Comps[id]
		for _, aoid := range comp.Atomics {
			a := db.Atomics[aoid]
			for _, coid := range a.Out {
				if db.Conns[coid] == nil {
					continue
				}
				delete(db.Conns, coid)
				if err := db.Store.Delete(coid); err != nil {
					return n, err
				}
				n++
			}
			delete(db.Atomics, aoid)
			if err := db.Store.Delete(aoid); err != nil {
				return n, err
			}
			n++
		}
		delete(db.Docs, comp.Doc)
		if err := db.Store.Delete(comp.Doc); err != nil {
			return n, err
		}
		n++
		for _, boid := range comp.UsedBy {
			b := db.Assms[boid]
			var kept []backend.OID
			for _, c := range b.Comps {
				if c != comp.OID {
					kept = append(kept, c)
				}
			}
			b.Comps = kept
			if err := db.Store.Update(boid); err != nil {
				return n, err
			}
		}
		if err := db.Store.Delete(comp.OID); err != nil {
			return n, err
		}
		n++
		db.Comps[id] = nil
	}
	return n, db.Store.Commit()
}

// oo7OpDef is one benchmark operation as an engine-ready op body; the
// update traversals (T2a/T2b/T3a write atomic parts and commit) are
// marked mutating so multi-client runs serialize them against readers.
// A body faults through the client's stream and returns only an error:
// the op's object count is the stream's.
type oo7OpDef struct {
	name     string
	mutating bool
	body     func(ctx *workload.Ctx, s *workload.AccessStream) error
}

// readOpDefs lists the classic benchmark sweep (traversals and queries)
// in benchmark order. atomicSpan and compSpan bound the random-id draws
// of Q1 and T8/Q4: the live dictionary lengths for a single client, the
// scenario-build snapshot when several clients run (so a client's draws
// do not depend on how the others' inserts interleave). T3a updates the
// build date of one atomic part per composite — mechanically T2a over
// the date attribute, hence the same body.
func (db *Database) readOpDefs(atomicSpan, compSpan func() int) []oo7OpDef {
	type (
		ctx    = workload.Ctx
		stream = workload.AccessStream
	)
	return []oo7OpDef{
		{"T1", false, func(c *ctx, s *stream) error { return db.traversalBody(c, s, 0, false) }},
		{"T2a", true, func(c *ctx, s *stream) error { return db.traversalBody(c, s, 1, false) }},
		{"T2b", true, func(c *ctx, s *stream) error { return db.traversalBody(c, s, -1, false) }},
		{"T3a", true, func(c *ctx, s *stream) error { return db.traversalBody(c, s, 1, false) }},
		{"T6", false, func(c *ctx, s *stream) error { return db.traversalBody(c, s, 0, true) }},
		{"T8", false, func(c *ctx, s *stream) error { return db.t8Body(c.Src, s, compSpan()) }},
		{"T9", false, func(_ *ctx, s *stream) error { return db.t9Body(s) }},
		{"Q1", false, func(c *ctx, s *stream) error { return db.q1Body(c.Src, s, atomicSpan()) }},
		{"Q2", false, func(c *ctx, s *stream) error { return db.rangeBody(c.Src, s, 0.01) }},
		{"Q3", false, func(c *ctx, s *stream) error { return db.rangeBody(c.Src, s, 0.10) }},
		{"Q4", false, func(c *ctx, s *stream) error { return db.q4Body(c.Src, s, compSpan()) }},
		{"Q5", false, func(_ *ctx, s *stream) error { return db.q5Body(s) }},
		{"Q7", false, func(_ *ctx, s *stream) error { return db.q7Body(s) }},
		{"Q8", false, func(_ *ctx, s *stream) error { return db.q8Body(s) }},
	}
}

// Scenario expresses the OO7 benchmark as a unified workload-engine spec:
// the fourteen read operations plus an insert+delete structural round
// trip, once each in fixed-program mode or as a weighted mix when the
// caller sets Measured. A single client continues the database's own
// generation stream, so CLIENTN=1 runs replay the pre-engine benchmark
// exactly; a multi-client run gives every client seed-derived private
// streams (op sampling and inserts) and freezes the Q1/T8/Q4 draw
// universes at the scenario-build dictionary sizes, so each client's
// operation stream is a pure function of its seed regardless of
// scheduling.
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
	// With several clients, freeze the Q1/T8/Q4 draw universes at the
	// scenario-build dictionary sizes; a single client draws over the
	// live lengths (the pre-engine replay).
	atomicSpan := func() int { return len(db.AtomicID) }
	compSpan := func() int { return len(db.Comps) }
	if clients > 1 {
		nAtomic0, nComp0 := len(db.AtomicID), len(db.Comps)
		atomicSpan = func() int { return nAtomic0 }
		compSpan = func() int { return nComp0 }
	}
	// ins are the per-client insert streams (see the oo1 scenario for the
	// full rationale): insert draws cannot ride ctx.Src, which the engine
	// samples outside the lock, and cannot share db.src across clients
	// without making each client's stream depend on the others' schedules.
	// A single client's stream is db.src itself, preserving the CLIENTN=1
	// replay.
	ins := make([]*lewis.Source, max(clients, 1))
	for c := range ins {
		ins[c] = lewis.New(db.P.Seed + 15485863 + int64(c)*104729)
	}
	if clients <= 1 {
		ins[0] = db.src
	}
	var ops []workload.Op
	for _, d := range db.readOpDefs(atomicSpan, compSpan) {
		body := d.body
		ops = append(ops, workload.Op{
			Name:     d.name,
			Weight:   1,
			Mutating: d.mutating,
			Run: func(ctx *workload.Ctx) (int, error) {
				s := ctx.State.(*workload.AccessStream)
				return end(s.End(body(ctx, s)))
			},
		})
	}
	ops = append(ops, workload.Op{
		Name:     "insert-delete",
		Weight:   1,
		Mutating: true,
		Run: func(ctx *workload.Ctx) (int, error) {
			// A self-contained structural round trip: one new
			// composite wired into the hierarchy, then removed —
			// safe to interleave with other clients' traversals
			// under the spec's exclusive lock.
			ids, n, err := db.insertBody(ins[ctx.Client], 1)
			if err != nil {
				return n, err
			}
			m, err := db.deleteBody(ids)
			return end(n+m, err)
		},
	})
	return &workload.Spec{
		Name:        "oo7",
		Description: "OO7 (small): assembly/composite traversals, queries and structural modifications",
		Clients:     clients,
		Seed:        db.P.Seed,
		Backend:     db.Store,
		Lock:        new(sync.RWMutex),
		Ops:         ops,
		// Single client: continue the generation stream (bit-identical
		// CLIENTN=1 replay). Multi-client: derive every source — the
		// mixed-mode sampler reads ctx.Src outside the lock, and sharing
		// db.src with insertBody's draws (exclusive lock) would race.
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

// Check verifies structural invariants of the generated database.
func Check(db *Database) error {
	p := db.P
	wantBase := 1
	for i := 1; i < p.AssmLevels; i++ {
		wantBase *= p.AssmFanout
	}
	if len(db.BaseAssm) != wantBase {
		return fmt.Errorf("oo7: %d base assemblies, want %d", len(db.BaseAssm), wantBase)
	}
	wantAssms := 0
	c := 1
	for l := 1; l <= p.AssmLevels; l++ {
		wantAssms += c
		c *= p.AssmFanout
	}
	if len(db.Assms) != wantAssms {
		return fmt.Errorf("oo7: %d assemblies, want %d", len(db.Assms), wantAssms)
	}
	liveComps := 0
	for _, comp := range db.Comps {
		if comp != nil {
			liveComps++
		}
	}
	if len(db.Atomics) != liveComps*p.NumAtomic {
		return fmt.Errorf("oo7: %d live atomics, want %d", len(db.Atomics), liveComps*p.NumAtomic)
	}
	for _, comp := range db.Comps {
		if comp == nil {
			continue
		}
		if len(comp.Atomics) != p.NumAtomic {
			return fmt.Errorf("oo7: composite %d has %d atomics", comp.ID, len(comp.Atomics))
		}
		if comp.Root != comp.Atomics[0] {
			return fmt.Errorf("oo7: composite %d root mismatch", comp.ID)
		}
		if _, ok := db.Docs[comp.Doc]; !ok {
			return fmt.Errorf("oo7: composite %d lost its document", comp.ID)
		}
		// Connections stay within the composite.
		for _, aoid := range comp.Atomics {
			a := db.Atomics[aoid]
			if a == nil {
				return fmt.Errorf("oo7: composite %d has dangling atomic", comp.ID)
			}
			for _, coid := range a.Out {
				conn := db.Conns[coid]
				if conn == nil {
					return fmt.Errorf("oo7: atomic %d dangling connection", a.ID)
				}
				ta := db.Atomics[conn.To]
				if ta == nil || ta.Comp != comp.ID {
					return fmt.Errorf("oo7: connection escapes composite %d", comp.ID)
				}
			}
		}
	}
	for _, boid := range db.BaseAssm {
		b := db.Assms[boid]
		if b.Level != p.AssmLevels {
			return fmt.Errorf("oo7: base assembly at level %d", b.Level)
		}
		if len(b.Comps) < p.CompPerAssm {
			return fmt.Errorf("oo7: base assembly with %d composites", len(b.Comps))
		}
	}
	return nil
}
