package remote_test

import (
	"sync/atomic"
	"testing"

	"ocb/internal/backend"
	"ocb/internal/backend/remote"
	"ocb/internal/core"
	"ocb/internal/lewis"
)

// faultFrames counts the fault requests that reach a hosted backend. The
// server makes one backend call per request frame, so this is the number
// of fault-carrying frames the clients sent.
type faultFrames struct {
	backend.Backend
	n atomic.Int64
}

func (f *faultFrames) Access(oid backend.OID) error {
	f.n.Add(1)
	return f.Backend.Access(oid)
}

func (f *faultFrames) AccessBatch(oids []backend.OID) (int, error) {
	f.n.Add(1)
	return f.Backend.AccessBatch(oids)
}

// TestTraversalFramesPerTransaction is the wire-side face of the
// executor's access stream: a traversal over the remote driver costs one
// request frame per 512 objects, not one per object.
func TestTraversalFramesPerTransaction(t *testing.T) {
	flat, err := backend.Open("flatmem", backend.Config{})
	if err != nil {
		t.Fatal(err)
	}
	hosted := &faultFrames{Backend: flat}

	// One class whose objects all carry three live references: every
	// traversal below runs to its full depth.
	p := core.DefaultParams()
	p.NC, p.SupClass = 1, 1
	p.MaxNRef, p.NRefT, p.NumAcyclicTypes = 3, 3, 0
	p.NO, p.SupRef = 2000, 2000
	p.Backend = remote.Name
	p.BackendOptions = map[string]string{"addr": serve(t, hosted, "flatmem")}
	db, err := core.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = db.Close() })

	// Following a reference type only one slot carries, the hierarchy
	// traversal is a chain of Depth+1 objects.
	slots := map[int]int{}
	for _, typ := range db.Schema.Class(1).TRef {
		slots[typ]++
	}
	chain := 0
	for typ, n := range slots {
		if n == 1 {
			chain = typ
		}
	}
	if chain == 0 {
		t.Fatalf("no reference type with exactly one slot in %v", db.Schema.Class(1).TRef)
	}

	ex := core.NewExecutor(db, nil, lewis.New(1))
	for _, tx := range []core.Transaction{
		{Type: core.HierarchyTraversal, Root: 1, Depth: 600, RefType: chain},
		{Type: core.StochasticTraversal, Root: 1, Depth: 1200},
	} {
		before := hosted.n.Load()
		objects, err := ex.ExecCounted(tx)
		if err != nil {
			t.Fatal(err)
		}
		if objects <= 512 {
			t.Fatalf("%v visits %d objects: too few to span two frames", tx.Type, objects)
		}
		if frames, most := hosted.n.Load()-before, int64((objects+511)/512); frames > most {
			t.Errorf("%v: %d fault frames for %d objects, want at most %d", tx.Type, frames, objects, most)
		}
	}
}
