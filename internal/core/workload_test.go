package core

import (
	"testing"

	"ocb/internal/backend"
	"ocb/internal/cluster"
	"ocb/internal/lewis"
)

// chainParams builds a degenerate database whose fan-out is exactly
// predictable: one class, MaxNRef references all alive (no acyclic
// suppression), every object references objects of the same class.
func chainParams(maxNRef, no int) Params {
	p := DefaultParams()
	p.NC = 1
	p.SupClass = 1
	p.MaxNRef = maxNRef
	p.NRefT = 3
	p.NumAcyclicTypes = 0
	p.NO = no
	p.SupRef = no
	p.BufferPages = 16
	return p
}

func TestSimpleTraversalCountsDuplicates(t *testing.T) {
	p := chainParams(2, 100)
	db := MustGenerate(p)
	ex := NewExecutor(db, nil, lewis.New(1))
	res, err := ex.Exec(Transaction{Type: SimpleTraversal, Root: 1, Depth: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Full binary fan-out: 1 + 2 + 4 + 8 = 15 accesses, duplicates allowed.
	if res != 15 {
		t.Fatalf("accessed = %d, want 15", res)
	}
}

func TestOO1ShapedTraversal(t *testing.T) {
	// OO1's traversal: depth 7 over fan-out 3 touches 3280 parts
	// (with possible duplicates) — the workload CluB inherits.
	p := chainParams(3, 500)
	db := MustGenerate(p)
	ex := NewExecutor(db, nil, lewis.New(1))
	res, err := ex.Exec(Transaction{Type: SimpleTraversal, Root: 7, Depth: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res != 3280 {
		t.Fatalf("accessed = %d, want 3280 (OO1 shape)", res)
	}
}

func TestSetAccessDeduplicates(t *testing.T) {
	p := chainParams(2, 100)
	db := MustGenerate(p)
	ex := NewExecutor(db, nil, lewis.New(1))
	set, err := ex.Exec(Transaction{Type: SetAccess, Root: 1, Depth: 3})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := ex.Exec(Transaction{Type: SimpleTraversal, Root: 1, Depth: 3})
	if err != nil {
		t.Fatal(err)
	}
	if set > sim {
		t.Fatalf("set access (%d) exceeded duplicate-counting traversal (%d)",
			set, sim)
	}
	if set < 1 {
		t.Fatal("set access touched nothing")
	}
	// With a 100-object database, depth-3 fan-out must revisit something:
	// strictly fewer unique objects than raw visits.
	if set == sim {
		t.Logf("warning: no duplicates at this seed (set=%d)", set)
	}
}

func TestHierarchyFollowsOneType(t *testing.T) {
	p := chainParams(4, 200)
	db := MustGenerate(p)
	ex := NewExecutor(db, nil, lewis.New(1))

	class := db.Schema.Class(1)
	// Count the class's references of type 1: hierarchy fan-out per hop.
	fanout := 0
	for _, tr := range class.TRef {
		if tr == 1 {
			fanout++
		}
	}
	res, err := ex.Exec(Transaction{Type: HierarchyTraversal, Root: 1, Depth: 2, RefType: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := 1 + fanout + fanout*fanout
	if res != want {
		t.Fatalf("accessed = %d, want %d (fan-out %d)", res, want, fanout)
	}
}

func TestStochasticWalkLength(t *testing.T) {
	p := chainParams(3, 200)
	db := MustGenerate(p)
	ex := NewExecutor(db, nil, lewis.New(5))
	res, err := ex.Exec(Transaction{Type: StochasticTraversal, Root: 1, Depth: 50})
	if err != nil {
		t.Fatal(err)
	}
	// Every object has 3 live references, so the walk never stalls.
	if res != 51 {
		t.Fatalf("accessed = %d, want 51 (root + 50 steps)", res)
	}
}

func TestStochasticPrefersFirstReference(t *testing.T) {
	p := chainParams(3, 500)
	db := MustGenerate(p)
	// Count how often each reference slot is chosen by instrumenting with
	// a policy that records crossings.
	rec := &recordingPolicy{}
	ex := NewExecutor(db, rec, lewis.New(11))
	for root := 1; root <= 100; root++ {
		if _, err := ex.Exec(Transaction{Type: StochasticTraversal, Root: backend.OID(root), Depth: 20}); err != nil {
			t.Fatal(err)
		}
	}
	firstRef, otherRef := 0, 0
	for _, cr := range rec.crossings {
		obj := db.Object(cr.src)
		if obj.ORef[0] == cr.dst {
			firstRef++
		} else {
			otherRef++
		}
	}
	// p(1) = 1/2 of draws, plus collisions when other slots point at the
	// same target. It must clearly dominate any single other slot.
	if firstRef <= otherRef/2+otherRef/4 {
		t.Fatalf("first reference not preferred: first=%d others=%d", firstRef, otherRef)
	}
}

func TestReverseTraversalUsesBackRefs(t *testing.T) {
	p := chainParams(2, 100)
	db := MustGenerate(p)
	// Find an object with backrefs but give it no forward refs by picking
	// any object and comparing forward vs reverse from the same root.
	var root backend.OID
	for i := 1; i <= p.NO; i++ {
		if len(db.Objects[i].BackRef) > 0 {
			root = backend.OID(i)
			break
		}
	}
	if root == backend.NilOID {
		t.Fatal("no object with backrefs")
	}
	rec := &recordingPolicy{}
	ex := NewExecutor(db, rec, lewis.New(1))
	res, err := ex.Exec(Transaction{Type: SimpleTraversal, Root: root, Depth: 1, Reverse: true})
	if err != nil {
		t.Fatal(err)
	}
	want := 1 + len(db.Object(root).BackRef)
	if res != want {
		t.Fatalf("reverse accessed %d, want %d", res, want)
	}
	// Every crossing must be a real backward link: dst references src.
	for _, cr := range rec.crossings {
		found := false
		for _, r := range db.Object(cr.dst).ORef {
			if r == cr.src {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("reverse crossing %d->%d is not a backward link", cr.src, cr.dst)
		}
	}
}

func TestReverseHierarchyTypeFilter(t *testing.T) {
	p := chainParams(4, 200)
	db := MustGenerate(p)
	ex := NewExecutor(db, nil, lewis.New(1))
	// Forward hierarchy crossings of type 2 from every object must mirror
	// reverse hierarchy crossings of type 2 into that object.
	fwd, err := ex.Exec(Transaction{Type: HierarchyTraversal, Root: 10, Depth: 1, RefType: 2})
	if err != nil {
		t.Fatal(err)
	}
	obj := db.Object(10)
	class := db.Schema.Class(obj.Class)
	wantFwd := 1
	for k, tr := range class.TRef {
		if tr == 2 && obj.ORef[k] != backend.NilOID {
			wantFwd++
		}
	}
	if fwd != wantFwd {
		t.Fatalf("forward typed fan-out = %d, want %d", fwd, wantFwd)
	}
	rev, err := ex.Exec(Transaction{Type: HierarchyTraversal, Root: 10, Depth: 1, RefType: 2, Reverse: true})
	if err != nil {
		t.Fatal(err)
	}
	wantRev := 1
	for _, from := range obj.BackRef {
		fobj := db.Object(from)
		fclass := db.Schema.Class(fobj.Class)
		for k, r := range fobj.ORef {
			if r == obj.OID && fclass.TRef[k] == 2 {
				wantRev++
				break
			}
		}
	}
	if rev != wantRev {
		t.Fatalf("reverse typed fan-in = %d, want %d", rev, wantRev)
	}
}

func TestExecErrors(t *testing.T) {
	p := chainParams(2, 50)
	db := MustGenerate(p)
	ex := NewExecutor(db, nil, lewis.New(1))
	if _, err := ex.Exec(Transaction{Type: TxType(42), Root: 1}); err == nil {
		t.Fatal("unknown type accepted")
	}
	// 1<<63 + 1 is negative as an int: the range check must not let it
	// through to the index.
	for _, root := range []backend.OID{9999, 1<<63 + 1} {
		for _, typ := range []TxType{SetAccess, SimpleTraversal, HierarchyTraversal, StochasticTraversal} {
			if _, err := ex.Exec(Transaction{Type: typ, Root: root, Depth: 1, RefType: 1}); err == nil {
				t.Fatalf("%v accepted bad root %d", typ, root)
			}
		}
	}
}

func TestExecCountsIOs(t *testing.T) {
	p := chainParams(3, 2000)
	p.BufferPages = 4 // heavy pressure so traversals must fault
	db := MustGenerate(p)
	db.Store.DropCache()
	ex := NewExecutor(db, nil, lewis.New(1))
	before := db.Store.DiskStats().TransactionIOs()
	if _, err := ex.Exec(Transaction{Type: SimpleTraversal, Root: 1, Depth: 4}); err != nil {
		t.Fatal(err)
	}
	if db.Store.DiskStats().TransactionIOs() == before {
		t.Fatal("traversal under memory pressure performed no I/O")
	}
}

func TestPolicyObservation(t *testing.T) {
	p := chainParams(2, 100)
	db := MustGenerate(p)
	rec := &recordingPolicy{}
	ex := NewExecutor(db, rec, lewis.New(1))
	res, err := ex.Exec(Transaction{Type: SimpleTraversal, Root: 5, Depth: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.roots) != 1 || rec.roots[0] != 5 {
		t.Fatalf("roots = %v", rec.roots)
	}
	// Every non-root access is one observed crossing.
	if len(rec.crossings) != res-1 {
		t.Fatalf("crossings = %d, accesses = %d", len(rec.crossings), res)
	}
	if rec.endTx != 1 {
		t.Fatalf("EndTransaction called %d times", rec.endTx)
	}
}

func TestTxTypeString(t *testing.T) {
	names := map[TxType]string{
		SetAccess: "set", SimpleTraversal: "simple",
		HierarchyTraversal: "hierarchy", StochasticTraversal: "stochastic",
	}
	for typ, want := range names {
		if typ.String() != want {
			t.Fatalf("%d.String() = %q", typ, typ.String())
		}
	}
	if TxType(9).String() == "" {
		t.Fatal("unknown type empty")
	}
}

// recordingPolicy captures observation callbacks for assertions.
type recordingPolicy struct {
	crossings []struct{ src, dst backend.OID }
	roots     []backend.OID
	endTx     int
}

func (r *recordingPolicy) Name() string { return "recording" }
func (r *recordingPolicy) ObserveLink(src, dst backend.OID) {
	r.crossings = append(r.crossings, struct{ src, dst backend.OID }{src, dst})
}
func (r *recordingPolicy) ObserveRoot(root backend.OID) { r.roots = append(r.roots, root) }
func (r *recordingPolicy) EndTransaction()              { r.endTx++ }
func (r *recordingPolicy) Reorganize(backend.Backend) (backend.RelocStats, error) {
	return backend.RelocStats{}, nil
}
func (r *recordingPolicy) Reset() { *r = recordingPolicy{} }

var _ cluster.Policy = (*recordingPolicy)(nil)
