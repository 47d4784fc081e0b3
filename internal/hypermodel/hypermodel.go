// Package hypermodel implements the HyperModel benchmark (Anderson et al.,
// EDBT 1990; also called the Tektronix benchmark) described in Section 2.2
// of the OCB paper, on the shared store substrate.
//
// The database is an extended hypertext graph of Node objects bound by
// three relationship families:
//
//   - aggregation (parent/children, 1-N): a full tree of fanout 5 and six
//     levels — the canonical 3906 nodes;
//   - partOf/parts (M-N): each non-leaf node is linked to five random
//     nodes of the next level;
//   - refTo/refFrom (1-1 association): every node references one random
//     node.
//
// The workload is the benchmark's seven operation kinds (name lookup,
// range lookup, group lookup, reference lookup, sequential scan, closure
// traversal, editing), each executed under HyperModel's setup/cold/warm
// protocol: 50 precomputed inputs, a timed cold run over all 50 (with a
// commit when the operation updates), then a warm run repeating the same
// inputs to expose caching effects. The package holds the op bodies and
// the Scenario that names them; timing and I/O accounting are the
// workload engine's.
package hypermodel

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"ocb/internal/backend"
	"ocb/internal/cluster"
	"ocb/internal/lewis"
	"ocb/internal/workload"
)

// Params sizes the HyperModel database.
type Params struct {
	// Levels is the number of aggregation levels below the root.
	// Default 5, which with Fanout 5 yields the canonical 3906 nodes.
	Levels int
	// Fanout is the aggregation tree fan-out. Default 5.
	Fanout int
	// PartFanout is the number of partOf links per non-leaf node.
	// Default 5.
	PartFanout int
	// NodeSize is the node payload size in bytes (attributes plus text).
	// Default 100.
	NodeSize int
	// Inputs is the number of precomputed operation inputs (the "50" of
	// the protocol). Default 50.
	Inputs int
	// MillionRange is the attribute domain for the million attribute.
	// Default 1000000.
	MillionRange int

	// Backend selects the system-under-test driver ("" = "paged");
	// BackendOptions are driver-specific settings. The geometry fields
	// apply to paged backends and are ignored by others.
	Backend        string
	BackendOptions map[string]string
	PageSize       int
	BufferPages    int
	Seed           int64
}

// DefaultParams returns the canonical HyperModel configuration.
func DefaultParams() Params {
	return Params{
		Levels:       5,
		Fanout:       5,
		PartFanout:   5,
		NodeSize:     100,
		Inputs:       50,
		MillionRange: 1000000,
		PageSize:     4096,
		BufferPages:  512,
		Seed:         1990, // EDBT '90
	}
}

// Validate reports the first bad parameter.
func (p Params) Validate() error {
	switch {
	case p.Levels < 1 || p.Fanout < 1:
		return fmt.Errorf("hypermodel: bad tree shape %d/%d", p.Levels, p.Fanout)
	case p.PartFanout < 0:
		return fmt.Errorf("hypermodel: PartFanout = %d", p.PartFanout)
	case p.NodeSize < 0:
		return fmt.Errorf("hypermodel: NodeSize = %d", p.NodeSize)
	case p.Inputs < 1:
		return fmt.Errorf("hypermodel: Inputs = %d", p.Inputs)
	case p.MillionRange < 1:
		return fmt.Errorf("hypermodel: MillionRange = %d", p.MillionRange)
	}
	return nil
}

// Node is one hypertext node.
type Node struct {
	OID   backend.OID
	ID    int // uniqueId attribute; dense 1..N
	Level int
	// Hundred is the hundred attribute (ID % 100); Million is a random
	// attribute in [0, MillionRange).
	Hundred, Million int

	Parent   backend.OID // aggregation, inverse of Children
	Children []backend.OID
	Parts    []backend.OID // partOf M-N, forward
	PartOf   []backend.OID // partOf M-N, inverse
	RefTo    backend.OID   // 1-1 association
	RefFrom  []backend.OID // inverse of RefTo
}

// Database is a generated HyperModel object base.
type Database struct {
	P     Params
	Store backend.Backend
	// Nodes is indexed by uniqueId (1-based).
	Nodes []*Node
	// Levels[k] lists the node ids of aggregation level k.
	Levels [][]int
	// GenTime is the creation wall-clock duration.
	GenTime time.Duration

	byHundred [][]int // hundred attribute index
	byMillion []int   // node ids sorted by (Million, ID)
	// mu guards the node attributes and indexes: every Scenario op's Run
	// holds it through AccessStream.End, exclusively for the three edits.
	mu  sync.RWMutex
	src *lewis.Source
}

// Generate builds the HyperModel database level by level. A generation
// that fails releases the store it opened.
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
		P:         p,
		Store:     st,
		Nodes:     []*Node{nil},
		Levels:    make([][]int, p.Levels+1),
		byHundred: make([][]int, 100),
		src:       lewis.New(p.Seed),
	}

	// Aggregation tree, created level by level (breadth-first placement).
	for level := 0; level <= p.Levels; level++ {
		count := 1
		for i := 0; i < level; i++ {
			count *= p.Fanout
		}
		for i := 0; i < count; i++ {
			n, err := db.newNode(level)
			if err != nil {
				return nil, err
			}
			db.Levels[level] = append(db.Levels[level], n.ID)
		}
	}
	// Parent/children links: node i of level k+1 belongs to parent
	// i/Fanout of level k.
	for level := 1; level <= p.Levels; level++ {
		for i, id := range db.Levels[level] {
			parent := db.Nodes[db.Levels[level-1][i/p.Fanout]]
			child := db.Nodes[id]
			child.Parent = parent.OID
			parent.Children = append(parent.Children, child.OID)
		}
	}
	// partOf links: each non-leaf node references PartFanout random nodes
	// of the next level (M-N: a node can be part of several nodes).
	for level := 0; level < p.Levels; level++ {
		next := db.Levels[level+1]
		for _, id := range db.Levels[level] {
			node := db.Nodes[id]
			for k := 0; k < p.PartFanout; k++ {
				part := db.Nodes[next[db.src.Intn(len(next))]]
				node.Parts = append(node.Parts, part.OID)
				part.PartOf = append(part.PartOf, node.OID)
			}
		}
	}
	// refTo: every node references one random node.
	for id := 1; id < len(db.Nodes); id++ {
		node := db.Nodes[id]
		target := db.Nodes[db.src.IntRange(1, len(db.Nodes)-1)]
		node.RefTo = target.OID
		target.RefFrom = append(target.RefFrom, node.OID)
	}
	// Attribute indexes.
	db.byMillion = make([]int, 0, len(db.Nodes)-1)
	for id := 1; id < len(db.Nodes); id++ {
		db.byMillion = append(db.byMillion, id)
	}
	sort.Slice(db.byMillion, func(i, j int) bool {
		return millionLess(db.Nodes[db.byMillion[i]], db.Nodes[db.byMillion[j]])
	})

	if err := st.Commit(); err != nil {
		return nil, err
	}
	//ocblint:allow determinism -- harness timing, not op logic
	db.GenTime = time.Since(start)
	st.ResetStats()
	return db, nil
}

func (db *Database) newNode(level int) (*Node, error) {
	oid, err := db.Store.Create(db.P.NodeSize)
	if err != nil {
		return nil, fmt.Errorf("hypermodel: creating node: %w", err)
	}
	n := &Node{
		OID:     oid,
		ID:      len(db.Nodes),
		Level:   level,
		Million: db.src.Intn(db.P.MillionRange),
	}
	n.Hundred = n.ID % 100
	db.Nodes = append(db.Nodes, n)
	db.byHundred[n.Hundred] = append(db.byHundred[n.Hundred], n.ID)
	return n, nil
}

// NumNodes returns the node count.
func (db *Database) NumNodes() int { return len(db.Nodes) - 1 }

// node returns the node owning an OID. The mapping is linear: the
// generator creates one object per node in id order, and OIDs are issued
// sequentially — from wherever the store's counter stood, which is not 1
// on a store shared with earlier runs (a served one).
func (db *Database) node(oid backend.OID) *Node { return db.Nodes[int(oid-db.Nodes[1].OID)+1] }

// OpName enumerates the benchmark's operations.
type OpName string

// The twenty HyperModel operations, grouped in their seven kinds.
const (
	NameLookup          OpName = "nameLookup"
	NameOIDLookup       OpName = "nameOIDLookup"
	RangeLookupHundred  OpName = "rangeLookupHundred"
	RangeLookupMillion  OpName = "rangeLookupMillion"
	GroupLookupChildren OpName = "groupLookup1N"
	GroupLookupParts    OpName = "groupLookupMN"
	GroupLookupRefTo    OpName = "groupLookup11"
	RefLookupParent     OpName = "refLookup1N"
	RefLookupPartOf     OpName = "refLookupMN"
	RefLookupRefFrom    OpName = "refLookup11"
	SeqScan             OpName = "seqScan"
	ClosureChildren     OpName = "closure1N"
	ClosureParts        OpName = "closureMN"
	ClosureRefTo        OpName = "closure11"
	ClosureChildrenDpth OpName = "closure1NDepth"
	ClosurePartsDpth    OpName = "closureMNDepth"
	ClosureRefToDpth    OpName = "closure11Depth"
	EditNode            OpName = "editNode"
	EditText            OpName = "editText"
	EditMillion         OpName = "editMillion"
)

// AllOperations lists every operation in protocol order.
func AllOperations() []OpName {
	return []OpName{
		NameLookup, NameOIDLookup,
		RangeLookupHundred, RangeLookupMillion,
		GroupLookupChildren, GroupLookupParts, GroupLookupRefTo,
		RefLookupParent, RefLookupPartOf, RefLookupRefFrom,
		SeqScan,
		ClosureChildren, ClosureParts, ClosureRefTo,
		ClosureChildrenDpth, ClosurePartsDpth, ClosureRefToDpth,
		EditNode, EditText, EditMillion,
	}
}

// hmClient is the engine's per-client state: the client's access stream
// and the precomputed inputs of each operation, drawn untimed by the cold
// pass and replayed by the warm one (the protocol's "setup" step).
type hmClient struct {
	stream workload.AccessStream
	inputs map[OpName][]int
}

// drawInputs precomputes one operation's input node ids from the client's
// source.
func (db *Database) drawInputs(src *lewis.Source) []int {
	inputs := make([]int, db.P.Inputs)
	for i := range inputs {
		inputs[i] = src.IntRange(1, db.NumNodes())
	}
	return inputs
}

// passBody runs one pass of an operation over its precomputed inputs —
// the body both the cold and warm runs share. Each input is one
// transaction to the policy, so its faults are flushed before it ends.
// "If the operation is an update, commit the changes once for all 50
// operations."
func (db *Database) passBody(name OpName, inputs []int, src *lewis.Source, s *workload.AccessStream) (int, error) {
	updated := 0
	var err error
	for _, in := range inputs {
		var u int
		if u, err = db.execute(name, in, src, s); err == nil {
			err = s.Flush()
		}
		if err != nil {
			break
		}
		updated += u
		if s.Policy != nil {
			s.Policy.EndTransaction()
		}
	}
	if err == nil && updated > 0 {
		err = db.Store.Commit()
	}
	faulted, err := s.End(err)
	return updated + faulted, err
}

// opPair returns the engine ops of one HyperModel operation under the
// setup/cold/warm protocol: "<name>/cold" precomputes the inputs untimed,
// drops the cache, and runs the first pass; "<name>/warm" repeats the
// same inputs against the warmed cache. Both passes run under db.mu:
// exclusive for the editing operations, which mutate node attributes,
// shared for the rest.
func (db *Database) opPair(name OpName) []workload.Op {
	lock, unlock := db.mu.RLock, db.mu.RUnlock
	if name == EditNode || name == EditText || name == EditMillion {
		lock, unlock = db.mu.Lock, db.mu.Unlock
	}
	run := func(ctx *workload.Ctx) (int, error) {
		st := ctx.State.(*hmClient)
		lock()
		defer unlock()
		return db.passBody(name, st.inputs[name], ctx.Src, &st.stream)
	}
	return []workload.Op{
		{
			Name:   string(name) + "/cold",
			Weight: 1,
			Pre: func(ctx *workload.Ctx) error {
				st := ctx.State.(*hmClient)
				st.inputs[name] = db.drawInputs(ctx.Src)
				// The cold run starts from a cold cache; the warm run that
				// follows repeats the same inputs to test caching (§2.2).
				db.Store.DropCache()
				return nil
			},
			Run: run,
		},
		{
			Name:   string(name) + "/warm",
			Weight: 1,
			Pre: func(ctx *workload.Ctx) error {
				// A warm pass sampled without a preceding cold one (a
				// user-authored mix) draws its own inputs.
				st := ctx.State.(*hmClient)
				if st.inputs[name] == nil {
					st.inputs[name] = db.drawInputs(ctx.Src)
				}
				return nil
			},
			Run: run,
		},
	}
}

// Scenario expresses the HyperModel benchmark as a unified
// workload-engine spec: each of the 20 operations contributes a cold and
// a warm op. Client 0 continues the database's own generation stream, so
// CLIENTN=1 runs replay the pre-engine benchmark exactly.
func (db *Database) Scenario(policy cluster.Policy, clients int) *workload.Spec {
	if clients > 1 && policy != nil {
		policy = cluster.Synchronize(policy)
	}
	var ops []workload.Op
	for _, name := range AllOperations() {
		ops = append(ops, db.opPair(name)...)
	}
	return &workload.Spec{
		Name:        "hypermodel",
		Description: "HyperModel (Tektronix): the 20 operations under the setup/cold/warm protocol",
		Clients:     clients,
		Seed:        db.P.Seed,
		Backend:     db.Store,
		Ops:         ops,
		// Single client continues the generation stream (bit-identical
		// CLIENTN=1 replay); multi-client runs derive every source so no
		// client shares state with the database (same discipline as the
		// other suites).
		Source: func(c int) *lewis.Source {
			if c == 0 && clients <= 1 {
				return db.src
			}
			return lewis.New(db.P.Seed + int64(c)*104729)
		},
		NewClient: func(int, *lewis.Source) any {
			return &hmClient{
				stream: workload.AccessStream{Store: db.Store, Policy: policy},
				inputs: make(map[OpName][]int),
			}
		},
	}
}

// execute runs one operation instance from input node id, faulting
// through s, and returns how many objects it updated (the reads' object
// count is the stream's). Random choices (EditMillion's new attribute
// value) come from src, the executing client's source.
func (db *Database) execute(name OpName, input int, src *lewis.Source, s *workload.AccessStream) (int, error) {
	node := db.Nodes[input]
	switch name {
	case NameLookup, NameOIDLookup:
		// Retrieve one randomly selected node (by uniqueId / by OID —
		// both a single store access here).
		return 0, s.Visit(backend.NilOID, node.OID)

	case RangeLookupHundred:
		// Retrieve nodes with hundred = value (N/100 nodes via index).
		for _, id := range db.byHundred[input%100] {
			if err := s.Visit(backend.NilOID, db.Nodes[id].OID); err != nil {
				return 0, err
			}
		}
		return 0, nil

	case RangeLookupMillion:
		// Retrieve nodes with million in [lo, lo+1%), via the sorted index.
		lo := db.Nodes[input].Million
		hi := lo + db.P.MillionRange/100
		for i := db.millionPos(db.byMillion, &Node{Million: lo}); i < len(db.byMillion); i++ {
			nd := db.Nodes[db.byMillion[i]]
			if nd.Million >= hi {
				break
			}
			if err := s.Visit(backend.NilOID, nd.OID); err != nil {
				return 0, err
			}
		}
		return 0, nil

	case GroupLookupChildren:
		return 0, group(s, node, node.Children)
	case GroupLookupParts:
		return 0, group(s, node, node.Parts)
	case GroupLookupRefTo:
		return 0, group(s, node, []backend.OID{node.RefTo})

	case RefLookupParent:
		if node.Parent == backend.NilOID {
			return 0, nil
		}
		return 0, group(s, node, []backend.OID{node.Parent})
	case RefLookupPartOf:
		return 0, group(s, node, node.PartOf)
	case RefLookupRefFrom:
		return 0, group(s, node, node.RefFrom)

	case SeqScan:
		for id := 1; id <= db.NumNodes(); id++ {
			if err := s.Visit(backend.NilOID, db.Nodes[id].OID); err != nil {
				return 0, err
			}
		}
		return 0, nil

	case ClosureChildren:
		return 0, db.closure(s, node, relChildren, db.P.Levels+1)
	case ClosureParts:
		return 0, db.closure(s, node, relParts, db.P.Levels+1)
	case ClosureRefTo:
		return 0, db.closure(s, node, relRefTo, 25)
	case ClosureChildrenDpth:
		return 0, db.closure(s, node, relChildren, 2)
	case ClosurePartsDpth:
		return 0, db.closure(s, node, relParts, 2)
	case ClosureRefToDpth:
		return 0, db.closure(s, node, relRefTo, 5)

	case EditNode, EditMillion:
		// Update an attribute on one node.
		if err := db.Store.Update(node.OID); err != nil {
			return 0, err
		}
		if name == EditMillion {
			db.setMillion(node, src.Intn(db.P.MillionRange))
		}
		if s.Policy != nil {
			s.Policy.ObserveRoot(node.OID)
		}
		return 1, nil

	case EditText:
		// Update the text of a node and its refTo target (a two-object
		// update transaction).
		if err := db.Store.Update(node.OID); err != nil {
			return 0, err
		}
		if err := db.Store.Update(node.RefTo); err != nil {
			return 0, err
		}
		if s.Policy != nil {
			s.Policy.ObserveRoot(node.OID)
			s.Policy.ObserveLink(node.OID, node.RefTo)
		}
		return 2, nil

	default:
		return 0, fmt.Errorf("hypermodel: unknown operation %q", name)
	}
}

// millionLess is the byMillion index order: by Million, then by ID.
func millionLess(a, b *Node) bool {
	return a.Million < b.Million || a.Million == b.Million && a.ID < b.ID
}

// millionPos returns where key sorts in ids, a byMillion index.
func (db *Database) millionPos(ids []int, key *Node) int {
	return sort.Search(len(ids), func(i int) bool { return !millionLess(db.Nodes[ids[i]], key) })
}

// setMillion sets a node's million attribute and moves its id to its new
// place, so byMillion stays sorted for the range lookup.
func (db *Database) setMillion(n *Node, m int) {
	i := db.millionPos(db.byMillion, n)
	ids := slices.Delete(db.byMillion, i, i+1)
	n.Million = m
	db.byMillion = slices.Insert(ids, db.millionPos(ids, n), n.ID)
}

type relKind int

const (
	relChildren relKind = iota
	relParts
	relRefTo
)

// group accesses the root then each related node (one-level lookup).
func group(s *workload.AccessStream, root *Node, related []backend.OID) error {
	if err := s.Visit(backend.NilOID, root.OID); err != nil {
		return err
	}
	for _, oid := range related {
		if oid == backend.NilOID {
			continue
		}
		if err := s.Visit(root.OID, oid); err != nil {
			return err
		}
	}
	return nil
}

// closure traverses a relationship transitively up to depth.
func (db *Database) closure(s *workload.AccessStream, root *Node, rel relKind, depth int) error {
	if err := s.Visit(backend.NilOID, root.OID); err != nil {
		return err
	}
	var walk func(cur *Node, remaining int) error
	walk = func(cur *Node, remaining int) error {
		if remaining == 0 {
			return nil
		}
		var next []backend.OID
		switch rel {
		case relChildren:
			next = cur.Children
		case relParts:
			next = cur.Parts
		case relRefTo:
			if cur.RefTo != backend.NilOID {
				next = []backend.OID{cur.RefTo}
			}
		}
		for _, oid := range next {
			if err := s.Visit(cur.OID, oid); err != nil {
				return err
			}
			if err := walk(db.node(oid), remaining-1); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(root, depth)
}

// Check verifies structural invariants: tree shape, inverse relationship
// symmetry, and index completeness.
func Check(db *Database) error {
	p := db.P
	want := 0
	count := 1
	for level := 0; level <= p.Levels; level++ {
		if len(db.Levels[level]) != count {
			return fmt.Errorf("hypermodel: level %d has %d nodes, want %d", level, len(db.Levels[level]), count)
		}
		want += count
		count *= p.Fanout
	}
	if db.NumNodes() != want {
		return fmt.Errorf("hypermodel: %d nodes, want %d", db.NumNodes(), want)
	}
	for id := 1; id <= db.NumNodes(); id++ {
		n := db.Nodes[id]
		if n.Level > 0 {
			parent := db.node(n.Parent)
			found := false
			for _, c := range parent.Children {
				if c == n.OID {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("hypermodel: node %d not among parent's children", id)
			}
		}
		if n.Level < p.Levels && len(n.Children) != p.Fanout {
			return fmt.Errorf("hypermodel: node %d has %d children", id, len(n.Children))
		}
		for _, part := range n.Parts {
			pn := db.node(part)
			if pn.Level != n.Level+1 {
				return fmt.Errorf("hypermodel: part link crosses %d levels", pn.Level-n.Level)
			}
			found := false
			for _, po := range pn.PartOf {
				if po == n.OID {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("hypermodel: partOf inverse missing for node %d", id)
			}
		}
		if n.RefTo == backend.NilOID {
			return fmt.Errorf("hypermodel: node %d has no refTo", id)
		}
	}
	// Index completeness: byHundred files every node once, under its
	// hundred attribute; byMillion holds every node once, in millionLess
	// order.
	filed := make([]bool, db.NumNodes()+1)
	for h, ids := range db.byHundred {
		for _, id := range ids {
			if id < 1 || id > db.NumNodes() || filed[id] || db.Nodes[id].Hundred != h {
				return fmt.Errorf("hypermodel: hundred index files node %d under %d", id, h)
			}
			filed[id] = true
		}
	}
	if id := slices.Index(filed[1:], false) + 1; id > 0 {
		return fmt.Errorf("hypermodel: hundred index misses node %d", id)
	}
	if len(db.byMillion) != db.NumNodes() {
		return fmt.Errorf("hypermodel: million index holds %d of %d nodes", len(db.byMillion), db.NumNodes())
	}
	for i, id := range db.byMillion {
		if id < 1 || id > db.NumNodes() || i > 0 && !millionLess(db.Nodes[db.byMillion[i-1]], db.Nodes[id]) {
			return fmt.Errorf("hypermodel: million index out of order at entry %d (node %d)", i, id)
		}
	}
	return nil
}
