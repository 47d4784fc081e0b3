package core

import (
	"errors"
	"fmt"
	"testing"

	"ocb/internal/backend"
	"ocb/internal/lewis"
)

// These tests pin the executor's access stream from outside it: what the
// store is asked for, in which order and in how many calls, and what the
// policy is told when a fault fails part-way.

// streamStore flattens the Access and AccessBatch calls reaching a backend
// into one OID sequence and counts the calls. With failAt = k > 0 the k-th
// object (1-based) fails: the objects before it reach the backend, the
// call returns errInjected.
type streamStore struct {
	backend.Backend
	oids   []backend.OID
	calls  int
	failAt int
}

func (s *streamStore) Access(oid backend.OID) error {
	_, err := s.AccessBatch([]backend.OID{oid})
	return err
}

func (s *streamStore) AccessBatch(oids []backend.OID) (int, error) {
	s.calls++
	fail := s.failAt > 0 && len(s.oids)+len(oids) >= s.failAt
	if fail {
		oids = oids[:s.failAt-1-len(s.oids)]
	}
	n, err := s.Backend.AccessBatch(oids)
	s.oids = append(s.oids, oids[:n]...)
	if err == nil && fail {
		err = errInjected
	}
	return n, err
}

// crossing is one policy observation: the link from → to, or the root to
// when from is NilOID.
type crossing struct{ from, to backend.OID }

// orderPolicy records the observations it receives in arrival order.
type orderPolicy struct {
	recordingPolicy
	seen []crossing
}

func (p *orderPolicy) ObserveLink(src, dst backend.OID) { p.seen = append(p.seen, crossing{src, dst}) }
func (p *orderPolicy) ObserveRoot(root backend.OID) {
	p.seen = append(p.seen, crossing{backend.NilOID, root})
}

// successors lists the objects a traversal may step to from oid: the
// non-NIL forward references in slot order, or the backward references.
func successors(db *Database, oid backend.OID, reverse bool) []backend.OID {
	obj := db.Object(oid)
	if reverse {
		return obj.BackRef
	}
	var out []backend.OID
	for _, r := range obj.ORef {
		if r != backend.NilOID {
			out = append(out, r)
		}
	}
	return out
}

// refWalk is the reference the executor is compared against: the faults a
// transaction must make, in order, each with the object it was reached
// from, derived from the object graph alone.
func refWalk(db *Database, tx Transaction, seed int64) []crossing {
	if tx.Type == RangeOp {
		var window []crossing
		for i := 0; i < db.P.NO/100; i++ {
			if oid := tx.Root + backend.OID(i); db.Object(oid) != nil {
				window = append(window, crossing{unobserved, oid})
			}
		}
		return window
	}
	walk := []crossing{{backend.NilOID, tx.Root}}
	switch tx.Type {
	case SetAccess:
		seen := map[backend.OID]bool{tx.Root: true}
		level := []backend.OID{tx.Root}
		for d := 0; d < tx.Depth; d++ {
			var next []backend.OID
			for _, oid := range level {
				for _, succ := range successors(db, oid, tx.Reverse) {
					if !seen[succ] {
						seen[succ] = true
						next = append(next, succ)
						walk = append(walk, crossing{oid, succ})
					}
				}
			}
			level = next
		}
	case SimpleTraversal, HierarchyTraversal:
		var dfs func(oid backend.OID, remaining int)
		dfs = func(oid backend.OID, remaining int) {
			if remaining == 0 {
				return
			}
			for _, succ := range successors(db, oid, tx.Reverse) {
				if tx.Type == HierarchyTraversal && !linkedBy(db, oid, succ, tx.RefType, tx.Reverse) {
					continue
				}
				walk = append(walk, crossing{oid, succ})
				dfs(succ, remaining-1)
			}
		}
		dfs(tx.Root, tx.Depth)
	case StochasticTraversal:
		src := lewis.New(seed)
		cur := tx.Root
		for step := 0; step < tx.Depth; step++ {
			succ := successors(db, cur, tx.Reverse)
			if len(succ) == 0 {
				break
			}
			n := 1
			for src.Bernoulli(0.5) {
				n++
			}
			next := succ[(n-1)%len(succ)]
			walk = append(walk, crossing{cur, next})
			cur = next
		}
	}
	return walk
}

// linkedBy reports whether the step oid → succ crosses a reference of type
// refType. Forward, some slot of oid holding succ has that type. Reversed,
// succ is the owner: one of its slots of that type points back at oid.
func linkedBy(db *Database, oid, succ backend.OID, refType int, reverse bool) bool {
	owner, target := oid, succ
	if reverse {
		owner, target = succ, oid
	}
	obj := db.Object(owner)
	class := db.Schema.Class(obj.Class)
	for k, r := range obj.ORef {
		if r == target && class.TRef[k] == refType {
			return true
		}
	}
	return false
}

// streamCases are the transactions the stream tests run on the chain
// database (one class, three references per object, of types [1 3 3]): every
// traversal type both ways and the range lookup, most of them longer than
// one chunk.
var streamCases = []struct {
	name string
	tx   Transaction
}{
	{"set", Transaction{Type: SetAccess, Root: 1, Depth: 6}},
	{"set/reverse", Transaction{Type: SetAccess, Root: 1, Depth: 6, Reverse: true}},
	{"simple", Transaction{Type: SimpleTraversal, Root: 1, Depth: 6}},
	{"simple/reverse", Transaction{Type: SimpleTraversal, Root: 1, Depth: 6, Reverse: true}},
	{"hierarchy", Transaction{Type: HierarchyTraversal, Root: 1, Depth: 10, RefType: 3}},
	{"hierarchy/chain", Transaction{Type: HierarchyTraversal, Root: 1, Depth: 40, RefType: 1}},
	{"hierarchy/reverse", Transaction{Type: HierarchyTraversal, Root: 1, Depth: 8, RefType: 3, Reverse: true}},
	{"stochastic", Transaction{Type: StochasticTraversal, Root: 1, Depth: 1200}},
	{"stochastic/reverse", Transaction{Type: StochasticTraversal, Root: 1, Depth: 1200, Reverse: true}},
	{"range", Transaction{Type: RangeOp, Root: 1}},
}

const streamSeed = 11

func streamDB() (*Database, *streamStore) {
	p := chainParams(3, 2000)
	p.BufferPages = 64
	db := MustGenerate(p)
	st := &streamStore{Backend: db.Store}
	db.Store = st
	return db, st
}

// TestAccessStreamOrderAndChunks: the store sees exactly the reference
// walk — duplicates of the simple traversal included — in ⌈N/scanBatch⌉
// calls, the policy the same walk, and the transaction counts N objects.
func TestAccessStreamOrderAndChunks(t *testing.T) {
	db, st := streamDB()
	long := 0
	for _, tc := range streamCases {
		t.Run(tc.name, func(t *testing.T) {
			want := refWalk(db, tc.tx, streamSeed)
			if len(want) > scanBatch {
				long++
			}
			st.oids, st.calls = st.oids[:0], 0
			pol := &orderPolicy{}
			n, err := NewExecutor(db, pol, lewis.New(streamSeed)).ExecCounted(tc.tx)
			if err != nil {
				t.Fatal(err)
			}
			if n != len(want) {
				t.Fatalf("accessed %d objects, reference walk has %d", n, len(want))
			}
			checkFaults(t, st.oids, want)
			if chunks := (len(want) + scanBatch - 1) / scanBatch; st.calls != chunks {
				t.Errorf("%d store calls for %d objects, want %d", st.calls, len(want), chunks)
			}
			if tc.tx.Type == RangeOp {
				want = []crossing{{backend.NilOID, tc.tx.Root}}
			}
			checkObserved(t, pol, want)
			if pol.endTx != 1 {
				t.Errorf("EndTransaction called %d times, want 1", pol.endTx)
			}
		})
	}
	if long < 6 {
		t.Fatalf("only %d of the cases span more than one chunk: the geometry no longer tests chunking", long)
	}
}

// TestAccessStreamFaultMidway fails the k-th fault, inside the first chunk
// and inside a later one: the transaction returns the error, has counted
// the k-1 objects that completed, and the policy saw those and no more.
func TestAccessStreamFaultMidway(t *testing.T) {
	db, st := streamDB()
	for _, tc := range streamCases {
		want := refWalk(db, tc.tx, streamSeed)
		for _, k := range []int{3, scanBatch + 188} {
			if k > len(want) {
				continue
			}
			t.Run(fmt.Sprintf("%s/k=%d", tc.name, k), func(t *testing.T) {
				st.oids, st.calls, st.failAt = st.oids[:0], 0, k
				defer func() { st.failAt = 0 }()
				pol := &orderPolicy{}
				ex := NewExecutor(db, pol, lewis.New(streamSeed))
				if _, err := ex.ExecCounted(tc.tx); !errors.Is(err, errInjected) {
					t.Fatalf("fault at object %d not returned: %v", k, err)
				}
				if ex.accessed != k-1 {
					t.Errorf("counted %d objects, want the completed prefix %d", ex.accessed, k-1)
				}
				checkFaults(t, st.oids, want[:k-1])
				if tc.tx.Type == RangeOp {
					checkObserved(t, pol, nil)
				} else {
					checkObserved(t, pol, want[:k-1])
				}
				if pol.endTx != 0 {
					t.Errorf("EndTransaction called on a failed transaction")
				}
				// The executor is reusable: nothing of the failed
				// transaction is left on the stream.
				st.failAt = 0
				if n, err := ex.ExecCounted(Transaction{Type: HierarchyTraversal, Root: 1, Depth: 2, RefType: 1}); err != nil || n != 3 {
					t.Errorf("transaction after the fault: %d objects, %v; want 3, nil", n, err)
				}
			})
		}
	}
}

func checkFaults(t *testing.T, got []backend.OID, want []crossing) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("store faulted %d objects, want %d", len(got), len(want))
	}
	for i, c := range want {
		if got[i] != c.to {
			t.Fatalf("fault %d is object %d, want %d", i, got[i], c.to)
		}
	}
}

func checkObserved(t *testing.T, pol *orderPolicy, want []crossing) {
	t.Helper()
	if len(pol.seen) != len(want) {
		t.Fatalf("policy saw %d observations, want %d", len(pol.seen), len(want))
	}
	for i, c := range want {
		if pol.seen[i] != c {
			t.Fatalf("observation %d is %v, want %v", i, pol.seen[i], c)
		}
	}
}
