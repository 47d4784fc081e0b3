package core

import (
	"fmt"
	"time"

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
// The object graph is client-resident (Database.Objects) and the store
// only charges the fault, so no type's visit order depends on a store
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

// TxResult reports one executed transaction.
type TxResult struct {
	ObjectsAccessed int
	IOs             uint64
	Duration        time.Duration
}

// Executor runs transactions against a database on behalf of one client,
// feeding the clustering policy's observation phase along the way.
//
// The executor has one way to fault an object: visit queues it on the
// access stream and flush ships the queue through Store.AccessBatch, at
// scanBatch entries and at the end of the transaction. A traversal
// therefore waits for the store once per scanBatch objects instead of once
// per object, which is exact because (a) AccessBatch charges what the same
// sequence of Access calls would, in the same order; (b) the graph lock is
// held from the first visit to the last flush, so no queued OID can be
// deleted underneath it; (c) policy observers only count, so replaying
// ObserveRoot/ObserveLink for the completed prefix after the batch, in
// visit order, leaves the policy in the state per-object calls would have.
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

	// pending is the access stream: the OIDs queued since the last flush,
	// in visit order, with pendingFrom[i] the object pending[i] was reached
	// from (NilOID for a root, unobserved for a fault the policy is not
	// told about). Both hold at most scanBatch entries.
	pending     []backend.OID
	pendingFrom []backend.OID
	// accessed counts the objects the current transaction's flushes
	// completed.
	accessed int

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

// Exec runs one transaction, returning objects accessed, I/Os charged to
// the transaction class, and wall-clock duration.
//
// Concurrency: read-only transaction types share-lock the database's graph
// lock, so traversals from many clients proceed in parallel; insertions
// and deletions take it exclusively (they restructure Objects, iterators
// and BackRefs). Store-level faulting is internally sharded.
//
// I/O attribution note: the I/O delta is read from the shared disk
// counters, so with CLIENTN > 1 concurrent clients the per-transaction
// figure includes interleaved faults of other clients; global phase totals
// remain exact. With one client the figure is exact (the configuration of
// every experiment in the paper's Section 4).
func (e *Executor) Exec(tx Transaction) (TxResult, error) {
	if tx.mutating() {
		e.DB.mu.Lock()
		defer e.DB.mu.Unlock()
	} else {
		e.DB.mu.RLock()
		defer e.DB.mu.RUnlock()
	}
	before := e.DB.Store.DiskStats()
	//ocblint:allow determinism -- harness timing, not op logic
	start := time.Now()

	accessed, err := e.execLocked(tx)
	if err != nil {
		return TxResult{}, err
	}

	after := e.DB.Store.DiskStats()
	return TxResult{
		ObjectsAccessed: accessed,
		IOs:             after.TransactionIOs() - before.TransactionIOs(),
		//ocblint:allow determinism -- harness timing, not op logic
		Duration: time.Since(start),
	}, nil
}

// ExecCounted is Exec without the measuring wrapper: it takes the same
// locks and runs the same transaction body but returns only the accessed
// object count. The workload engine uses it on the hot phase path — the
// engine samples time and disk counters itself, so Exec's per-transaction
// measurement would be computed twice and discarded.
func (e *Executor) ExecCounted(tx Transaction) (int, error) {
	if tx.mutating() {
		e.DB.mu.Lock()
		defer e.DB.mu.Unlock()
	} else {
		e.DB.mu.RLock()
		defer e.DB.mu.RUnlock()
	}
	return e.execLocked(tx)
}

// execLocked is the transaction body shared by Exec and ExecCounted; the
// caller holds the database's graph lock in the mode tx.mutating()
// demands.
//
//ocblint:allocfree -- steady-state hot path
func (e *Executor) execLocked(tx Transaction) (int, error) {
	// Under the generic workload, deletions may have invalidated the
	// sampled root; an in-range but deleted root resolves onto the live
	// object set. Out-of-range roots remain errors.
	if tx.Type != InsertOp && tx.Type != ScanOp {
		if tx.Root == backend.NilOID || int(tx.Root) >= len(e.DB.Objects) {
			return 0, fmt.Errorf("ocb: bad root %d", tx.Root)
		}
		if e.DB.Objects[tx.Root] == nil {
			root, ok := e.DB.ResolveLive(tx.Root)
			if !ok {
				return 0, fmt.Errorf("ocb: no live objects left")
			}
			tx.Root = root
		}
	}

	e.accessed = 0
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
		e.accessed, err = e.update(tx.Root)
	case InsertOp:
		e.accessed, err = e.insert()
	case DeleteOp:
		e.accessed, err = e.delete(tx.Root)
	case ScanOp:
		e.accessed, err = e.scan()
	case RangeOp:
		err = e.rangeLookup(tx.Root)
	default:
		return 0, fmt.Errorf("ocb: unknown transaction type %v", tx.Type)
	}
	if err == nil {
		err = e.flush()
	}
	if err != nil {
		return 0, err
	}
	if e.Policy != nil {
		e.Policy.EndTransaction()
	}
	return e.accessed, nil
}

// unobserved in the parent slot of a queued fault keeps flush from
// reporting it to the policy. No object has this OID: identifiers are
// dense from 1.
const unobserved = ^backend.OID(0)

// visit queues the fault of object to, reached from object from (NilOID
// for a root), on the access stream, flushing it when it holds scanBatch
// entries.
//
//ocblint:allocfree -- steady-state hot path
func (e *Executor) visit(from, to backend.OID) error {
	e.pending = append(e.pending, to)
	e.pendingFrom = append(e.pendingFrom, from)
	if len(e.pending) < scanBatch {
		return nil
	}
	return e.flush()
}

// flush faults the queued objects through one Store.AccessBatch call, in
// visit order, replays the policy observations of the prefix that
// completed, adds that prefix to the transaction's object count and
// empties the queue. On error the rest of the queue is dropped: the
// transaction is over.
//
//ocblint:allocfree -- steady-state hot path
func (e *Executor) flush() error {
	if len(e.pending) == 0 {
		return nil
	}
	n, err := e.DB.Store.AccessBatch(e.pending)
	if e.Policy != nil {
		for i, to := range e.pending[:n] {
			switch from := e.pendingFrom[i]; from {
			case unobserved:
			case backend.NilOID:
				e.Policy.ObserveRoot(to)
			default:
				e.Policy.ObserveLink(from, to)
			}
		}
	}
	e.accessed += n
	e.pending = e.pending[:0]
	e.pendingFrom = e.pendingFrom[:0]
	return err
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
	return e.visit(from, to)
}

// setAccess is the set-oriented access: breadth-first on all the
// references, up to depth hops, with set semantics (each object accessed
// once — the breadth-first result is a set of qualifying objects). The
// faults are queued in discovery order; the frontier buffers and seen-set
// are the executor's reusable scratch.
//
//ocblint:allocfree -- steady-state hot path
func (e *Executor) setAccess(root backend.OID, depth int, reverse bool) error {
	if e.DB.Object(root) == nil {
		return fmt.Errorf("ocb: bad root %d", root)
	}
	e.seen.Reset(len(e.DB.Objects))
	e.seen.Add(root)
	if err := e.visit(backend.NilOID, root); err != nil {
		return err
	}
	e.frontier = append(e.frontier[:0], root)
	for level := 0; level < depth && len(e.frontier) > 0; level++ {
		e.next = e.next[:0]
		for _, oid := range e.frontier {
			obj := e.DB.Object(oid)
			if reverse {
				for _, succ := range obj.BackRef {
					if err := e.discover(oid, succ); err != nil {
						return err
					}
				}
				continue
			}
			for _, succ := range obj.ORef {
				if succ == backend.NilOID {
					continue
				}
				if err := e.discover(oid, succ); err != nil {
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
	if e.DB.Object(root) == nil {
		return fmt.Errorf("ocb: bad root %d", root)
	}
	if err := e.visit(backend.NilOID, root); err != nil {
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
	obj := e.DB.Object(oid)
	if reverse {
		for _, succ := range obj.BackRef {
			if err := e.visit(oid, succ); err != nil {
				return err
			}
			if err := e.simpleDFS(succ, remaining-1, reverse); err != nil {
				return err
			}
		}
		return nil
	}
	for _, succ := range obj.ORef {
		if succ == backend.NilOID {
			continue
		}
		if err := e.visit(oid, succ); err != nil {
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
	if e.DB.Object(root) == nil {
		return fmt.Errorf("ocb: bad root %d", root)
	}
	if err := e.visit(backend.NilOID, root); err != nil {
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
	obj := e.DB.Object(oid)
	if reverse {
		for _, from := range obj.BackRef {
			fobj := e.DB.Object(from)
			fclass := e.DB.Schema.Class(fobj.Class)
			matched := false
			for k, r := range fobj.ORef {
				if r == obj.OID && fclass.TRef[k] == refType {
					matched = true
					break
				}
			}
			if !matched {
				continue
			}
			if err := e.visit(oid, from); err != nil {
				return err
			}
			if err := e.hierarchyDFS(from, remaining-1, refType, reverse); err != nil {
				return err
			}
		}
		return nil
	}
	class := e.DB.Schema.Class(obj.Class)
	for k, succ := range obj.ORef {
		if succ == backend.NilOID || class.TRef[k] != refType {
			continue
		}
		if err := e.visit(oid, succ); err != nil {
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
	if e.DB.Object(root) == nil {
		return fmt.Errorf("ocb: bad root %d", root)
	}
	if err := e.visit(backend.NilOID, root); err != nil {
		return err
	}
	cur := root
	for step := 0; step < depth; step++ {
		obj := e.DB.Object(cur)
		// Count the successors in place (non-NIL forward slots, or the
		// whole BackRef list reversed) instead of materializing them.
		count := len(obj.BackRef)
		if !reverse {
			count = 0
			for _, r := range obj.ORef {
				if r != backend.NilOID {
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
			next = obj.BackRef[k]
		} else {
			// k-th non-NIL forward slot, in slot order.
			for _, r := range obj.ORef {
				if r == backend.NilOID {
					continue
				}
				if k == 0 {
					next = r
					break
				}
				k--
			}
		}
		if err := e.visit(cur, next); err != nil {
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
	obj, err := e.DB.InsertObject(e.Src)
	if err != nil {
		return 0, err
	}
	if e.Policy != nil {
		e.Policy.ObserveRoot(obj.OID)
	}
	// The new object plus each referenced object touched for BackRef
	// maintenance.
	n := 1
	for _, r := range obj.ORef {
		if r != backend.NilOID {
			n++
		}
	}
	return n, nil
}

// delete removes the root object, repairing the graph, and commits.
func (e *Executor) delete(root backend.OID) (int, error) {
	obj := e.DB.Object(root)
	touched := 1 + len(obj.BackRef)
	if e.Policy != nil {
		e.Policy.ObserveRoot(root)
	}
	if err := e.DB.DeleteObject(root); err != nil {
		return 0, err
	}
	return touched, nil
}

// scanBatch bounds how many objects one AccessBatch call covers, on the
// access stream and during a scan, so neither pins store locks for a whole
// traversal nor grows a request frame with the database.
const scanBatch = 512

// scan visits every live object in OID order — HyperModel's Sequential
// Scan, excluded from the clustering workload and restored by §5. It walks
// one live-OID snapshot (the database's cached ascending snapshot, not a
// freshly built slice) in bounded batches through Store.AccessBatch.
//
//ocblint:allocfree -- steady-state hot path
func (e *Executor) scan() (int, error) {
	live := e.DB.LiveOIDs()
	n := 0
	for start := 0; start < len(live); start += scanBatch {
		end := start + scanBatch
		if end > len(live) {
			end = len(live)
		}
		k, err := e.DB.Store.AccessBatch(live[start:end])
		n += k
		if err != nil {
			return n, err
		}
	}
	if e.Policy != nil && n > 0 {
		e.Policy.ObserveRoot(live[0])
	}
	return n, nil
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
		if e.DB.Object(oid) == nil {
			continue
		}
		if err := e.visit(unobserved, oid); err != nil {
			return err
		}
	}
	if err := e.flush(); err != nil {
		return err
	}
	if e.Policy != nil {
		e.Policy.ObserveRoot(root)
	}
	return nil
}
