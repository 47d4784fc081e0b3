package core

import (
	"fmt"

	"ocb/internal/backend"
	"ocb/internal/cluster"
	"ocb/internal/lewis"
	"ocb/internal/workload"
)

// TxType enumerates OCB's transaction classes (Fig. 3).
type TxType int

// The four OCB transaction types. Set-oriented accesses explore in breadth
// first on all references; navigational accesses are depth first: simple
// traversals on all references, hierarchy traversals always following the
// same reference type, stochastic traversals choosing the next reference at
// random with p(N) = 1/2^N (Markov-chain-like, after Tsangaris & Naughton).
//
// The object graph is client-resident (the Database's object table) and
// the store only charges the fault, so no type's visit order depends on a store
// reply: all four, and RangeOp, fault through the executor's one access
// stream (see Executor) in visit order, duplicates included.
const (
	SetAccess TxType = iota
	SimpleTraversal
	HierarchyTraversal
	StochasticTraversal
	// The generic transaction set of the paper's Section 5 extension —
	// operations initially discarded because they cannot benefit from
	// clustering. Their occurrence probabilities default to 0.
	UpdateOp
	InsertOp
	DeleteOp
	ScanOp
	RangeOp
	NumTxTypes // sentinel
)

// String returns the transaction type name as used in reports.
func (t TxType) String() string {
	switch t {
	case SetAccess:
		return "set"
	case SimpleTraversal:
		return "simple"
	case HierarchyTraversal:
		return "hierarchy"
	case StochasticTraversal:
		return "stochastic"
	case UpdateOp:
		return "update"
	case InsertOp:
		return "insert"
	case DeleteOp:
		return "delete"
	case ScanOp:
		return "scan"
	case RangeOp:
		return "range"
	default:
		return fmt.Sprintf("TxType(%d)", int(t))
	}
}

// Transaction is one workload unit: a typed exploration from a root object
// up to a depth, optionally reversed ("ascending" the graphs through
// backward references).
type Transaction struct {
	Type TxType
	Root backend.OID
	// Depth bounds the exploration: hops from the root for the traversals,
	// steps for the stochastic walk.
	Depth int
	// RefType is the reference type a hierarchy traversal follows.
	RefType int
	// Reverse makes the transaction follow BackRef links instead of ORef.
	Reverse bool
}

// Executor runs transactions against a database on behalf of one client,
// feeding the clustering policy's observation phase along the way.
//
// The executor faults every object through its workload.AccessStream, in
// visit order, one Store.AccessBatch call per 512 objects. The stream is
// exact because the graph lock is held from the first visit to the
// transaction's End, so no queued OID can be deleted underneath it.
//
// The executor owns reusable per-client scratch state — the stream's
// buffers, a generation-stamped seen-set and pooled BFS frontier buffers —
// so the transaction fast path allocates nothing per visited object: the
// harness's own overhead stays out of the measured response times, as the
// benchmark design demands.
type Executor struct {
	DB *Database
	// Policy receives ObserveLink/ObserveRoot/EndTransaction callbacks;
	// nil means no observation (plain measurement run).
	Policy cluster.Policy
	// Src drives the stochastic traversal's random choices.
	Src *lewis.Source

	// stream faults the transaction's objects; it follows DB.Store and
	// Policy, rebound at the start of every transaction.
	stream workload.AccessStream

	// seen deduplicates set-access visits; reset is O(1) via generation
	// stamping instead of reallocating a map per transaction (the scratch
	// now lives in the workload engine, shared by every suite).
	seen workload.SeenSet
	// frontier/next are the BFS level buffers, swapped each level. They
	// order the breadth-first walk, not its faults.
	frontier []backend.OID
	next     []backend.OID
}

// NewExecutor returns an executor for db feeding policy (may be nil).
func NewExecutor(db *Database, policy cluster.Policy, src *lewis.Source) *Executor {
	return &Executor{DB: db, Policy: policy, Src: src}
}

// mutating reports whether the transaction restructures the in-memory
// object graph (and therefore needs the database's exclusive lock).
func (tx Transaction) mutating() bool {
	return tx.Type == InsertOp || tx.Type == DeleteOp
}

// Exec runs one transaction and returns the objects it accessed.
//
// Concurrency: read-only transaction types share-lock the database's graph
// lock, so traversals from many clients proceed in parallel; insertions
// and deletions take it exclusively (they restructure the object table
// and the iterators). The store serializes its own faulting behind its
// object-table and buffer-pool locks.
func (e *Executor) Exec(tx Transaction) (int, error) {
	if tx.mutating() {
		e.DB.mu.Lock()
		defer e.DB.mu.Unlock()
	} else {
		e.DB.mu.RLock()
		defer e.DB.mu.RUnlock()
	}
	return e.execLocked(tx)
}

// execLocked is Exec's transaction body; the caller holds the database's
// graph lock in the mode tx.mutating() demands.
//
//ocblint:allocfree -- steady-state hot path
func (e *Executor) execLocked(tx Transaction) (int, error) {
	// Under the generic workload, deletions may have invalidated the
	// sampled root; an in-range but deleted root resolves onto the live
	// object set. Out-of-range roots remain errors.
	if tx.Type != InsertOp && tx.Type != ScanOp {
		if tx.Root == backend.NilOID || uint64(tx.Root) >= uint64(len(e.DB.class)) {
			return 0, fmt.Errorf("ocb: bad root %d", tx.Root)
		}
		if e.DB.class[tx.Root] == 0 {
			root, ok := e.DB.ResolveLive(tx.Root)
			if !ok {
				return 0, fmt.Errorf("ocb: no live objects left")
			}
			tx.Root = root
		}
	}

	e.stream.Store, e.stream.Policy = e.DB.Store, e.Policy
	// n counts the objects a transaction touches without faulting them
	// (the writes); the stream counts the faults.
	n := 0
	var err error
	switch tx.Type {
	case SetAccess:
		err = e.setAccess(tx.Root, tx.Depth, tx.Reverse)
	case SimpleTraversal:
		err = e.simple(tx.Root, tx.Depth, tx.Reverse)
	case HierarchyTraversal:
		err = e.hierarchy(tx.Root, tx.Depth, tx.RefType, tx.Reverse)
	case StochasticTraversal:
		err = e.stochastic(tx.Root, tx.Depth, tx.Reverse)
	case UpdateOp:
		n, err = e.update(tx.Root)
	case InsertOp:
		n, err = e.insert()
	case DeleteOp:
		n, err = e.delete(tx.Root)
	case ScanOp:
		err = e.scan()
	case RangeOp:
		err = e.rangeLookup(tx.Root)
	default:
		return 0, fmt.Errorf("ocb: unknown transaction type %v", tx.Type)
	}
	faulted, err := e.stream.End(err)
	if err != nil {
		return 0, err
	}
	if e.Policy != nil {
		e.Policy.EndTransaction()
	}
	return n + faulted, nil
}

// discover marks a successor as seen, queues its fault and adds it to the
// next breadth-first level.
//
//ocblint:allocfree -- steady-state hot path
func (e *Executor) discover(from, to backend.OID) error {
	if !e.seen.Add(to) {
		return nil
	}
	e.next = append(e.next, to)
	return e.stream.Visit(from, to)
}

// setAccess is the set-oriented access: breadth-first on all the
// references, up to depth hops, with set semantics (each object accessed
// once — the breadth-first result is a set of qualifying objects). The
// faults are queued in discovery order; the frontier buffers and seen-set
// are the executor's reusable scratch. Like every walk below, it takes a
// live root, which execLocked resolved.
//
//ocblint:allocfree -- steady-state hot path
func (e *Executor) setAccess(root backend.OID, depth int, reverse bool) error {
	db := e.DB
	e.seen.Reset(len(db.class))
	e.seen.Add(root)
	if err := e.stream.Visit(backend.NilOID, root); err != nil {
		return err
	}
	e.frontier = append(e.frontier[:0], root)
	for level := 0; level < depth && len(e.frontier) > 0; level++ {
		e.next = e.next[:0]
		for _, oid := range e.frontier {
			if reverse {
				for _, succ := range db.backRefs[oid] {
					if err := e.discover(oid, succ); err != nil {
						return err
					}
				}
				continue
			}
			for _, r := range db.slots(oid) {
				if r == 0 {
					continue
				}
				if err := e.discover(oid, backend.OID(r)); err != nil {
					return err
				}
			}
		}
		e.frontier, e.next = e.next, e.frontier
	}
	return nil
}

// simple is the simple traversal: depth-first on all the references up to
// depth hops, duplicates allowed (as in OO1's part tree exploration).
//
//ocblint:allocfree -- steady-state hot path
func (e *Executor) simple(root backend.OID, depth int, reverse bool) error {
	if err := e.stream.Visit(backend.NilOID, root); err != nil {
		return err
	}
	return e.simpleDFS(root, depth, reverse)
}

// simpleDFS walks all references of oid depth-first for remaining more
// hops, iterating reference slots in place (no successor slice is
// materialized).
//
//ocblint:allocfree -- steady-state hot path
func (e *Executor) simpleDFS(oid backend.OID, remaining int, reverse bool) error {
	if remaining == 0 {
		return nil
	}
	if reverse {
		for _, succ := range e.DB.backRefs[oid] {
			if err := e.stream.Visit(oid, succ); err != nil {
				return err
			}
			if err := e.simpleDFS(succ, remaining-1, reverse); err != nil {
				return err
			}
		}
		return nil
	}
	for _, r := range e.DB.slots(oid) {
		if r == 0 {
			continue
		}
		succ := backend.OID(r)
		if err := e.stream.Visit(oid, succ); err != nil {
			return err
		}
		if err := e.simpleDFS(succ, remaining-1, reverse); err != nil {
			return err
		}
	}
	return nil
}

// hierarchy is the hierarchy traversal: depth-first always following the
// same type of reference.
//
//ocblint:allocfree -- steady-state hot path
func (e *Executor) hierarchy(root backend.OID, depth, refType int, reverse bool) error {
	if err := e.stream.Visit(backend.NilOID, root); err != nil {
		return err
	}
	return e.hierarchyDFS(root, depth, refType, reverse)
}

// hierarchyDFS walks the references of oid whose declared type is refType,
// depth-first for remaining more hops. Reversed, it follows the BackRef
// entries whose owning object points back at oid through a reference of
// that type. The type filter is applied in place while iterating, so no
// successor slice is materialized.
//
//ocblint:allocfree -- steady-state hot path
func (e *Executor) hierarchyDFS(oid backend.OID, remaining, refType int, reverse bool) error {
	if remaining == 0 {
		return nil
	}
	db := e.DB
	if reverse {
		for _, from := range db.backRefs[oid] {
			tref := db.Schema.Class(int(db.class[from])).TRef
			matched := false
			for k, r := range db.slots(from) {
				if backend.OID(r) == oid && tref[k] == refType {
					matched = true
					break
				}
			}
			if !matched {
				continue
			}
			if err := e.stream.Visit(oid, from); err != nil {
				return err
			}
			if err := e.hierarchyDFS(from, remaining-1, refType, reverse); err != nil {
				return err
			}
		}
		return nil
	}
	tref := db.Schema.Class(int(db.class[oid])).TRef
	for k, r := range db.slots(oid) {
		if r == 0 || tref[k] != refType {
			continue
		}
		succ := backend.OID(r)
		if err := e.stream.Visit(oid, succ); err != nil {
			return err
		}
		if err := e.hierarchyDFS(succ, remaining-1, refType, reverse); err != nil {
			return err
		}
	}
	return nil
}

// stochastic is the stochastic traversal: a random walk of depth steps
// where reference number N is crossed with probability p(N) = 1/2^N,
// approaching the Markov-chain access patterns of real queries
// (Tsangaris & Naughton). The geometric draw is folded modulo the number
// of available references so that every step makes progress; the walk
// stops early at objects without references.
//
//ocblint:allocfree -- steady-state hot path
func (e *Executor) stochastic(root backend.OID, depth int, reverse bool) error {
	if err := e.stream.Visit(backend.NilOID, root); err != nil {
		return err
	}
	db := e.DB
	cur := root
	for step := 0; step < depth; step++ {
		// Count the successors in place (non-NIL forward slots, or the
		// whole BackRef list reversed) instead of materializing them.
		var slots []uint32
		var count int
		if reverse {
			count = len(db.backRefs[cur])
		} else {
			slots = db.slots(cur)
			for _, r := range slots {
				if r != 0 {
					count++
				}
			}
		}
		if count == 0 {
			break
		}
		// Geometric draw: P(N = k) = 1/2^k, k >= 1.
		n := 1
		for e.Src.Bernoulli(0.5) {
			n++
		}
		k := (n - 1) % count
		var next backend.OID
		if reverse {
			next = db.backRefs[cur][k]
		} else {
			// k-th non-NIL forward slot, in slot order.
			for _, r := range slots {
				if r == 0 {
					continue
				}
				if k == 0 {
					next = backend.OID(r)
					break
				}
				k--
			}
		}
		if err := e.stream.Visit(cur, next); err != nil {
			return err
		}
		cur = next
	}
	return nil
}

// update modifies one object in place and commits — the update operation
// the clustering-oriented workload excludes (§3.3) and the generic
// extension (§5) restores.
func (e *Executor) update(root backend.OID) (int, error) {
	if err := e.DB.Store.Update(root); err != nil {
		return 0, err
	}
	if e.Policy != nil {
		e.Policy.ObserveRoot(root)
	}
	return 1, e.DB.Store.Commit()
}

// insert creates one new object per the generation rules and commits.
func (e *Executor) insert() (int, error) {
	oid, err := e.DB.InsertObject(e.Src)
	if err != nil {
		return 0, err
	}
	if e.Policy != nil {
		e.Policy.ObserveRoot(oid)
	}
	// The new object plus each referenced object touched for BackRef
	// maintenance.
	n := 1
	for _, r := range e.DB.slots(oid) {
		if r != 0 {
			n++
		}
	}
	return n, nil
}

// delete removes the root object, repairing the graph, and commits.
func (e *Executor) delete(root backend.OID) (int, error) {
	touched := 1 + len(e.DB.backRefs[root])
	if e.Policy != nil {
		e.Policy.ObserveRoot(root)
	}
	if err := e.DB.DeleteObject(root); err != nil {
		return 0, err
	}
	return touched, nil
}

// scan visits every live object in OID order — HyperModel's Sequential
// Scan, excluded from the clustering workload and restored by §5. It walks
// one live-OID snapshot (the database's cached ascending snapshot, not a
// freshly built slice) through the stream; the policy is told of the first
// object alone, once the scan completed.
//
//ocblint:allocfree -- steady-state hot path
func (e *Executor) scan() error {
	live := e.DB.LiveOIDs()
	for _, oid := range live {
		if err := e.stream.VisitUnobserved(oid); err != nil {
			return err
		}
	}
	if err := e.stream.Flush(); err != nil {
		return err
	}
	if e.Policy != nil && len(live) > 0 {
		e.Policy.ObserveRoot(live[0])
	}
	return nil
}

// rangeLookup visits the live objects whose OID falls within a 1%-of-NO
// window starting at the root — HyperModel's Range Lookup analogue over
// the object identifier attribute. The policy is told of the root alone,
// once the window's faults completed — hence the flush of its own.
//
//ocblint:allocfree -- steady-state hot path
func (e *Executor) rangeLookup(root backend.OID) error {
	width := e.DB.P.NO / 100
	if width < 1 {
		width = 1
	}
	for i := 0; i < width; i++ {
		oid := root + backend.OID(i)
		if !e.DB.Live(oid) {
			continue
		}
		if err := e.stream.VisitUnobserved(oid); err != nil {
			return err
		}
	}
	if err := e.stream.Flush(); err != nil {
		return err
	}
	if e.Policy != nil {
		e.Policy.ObserveRoot(root)
	}
	return nil
}
