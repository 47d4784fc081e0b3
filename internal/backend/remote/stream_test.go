package remote_test

import (
	"sync/atomic"
	"testing"

	"ocb/internal/backend"
	"ocb/internal/backend/remote"
	"ocb/internal/core"
	"ocb/internal/hypermodel"
	"ocb/internal/lewis"
	"ocb/internal/oo1"
	"ocb/internal/oo7"
	"ocb/internal/query"
	"ocb/internal/workload"
)

// faultFrames counts the fault requests that reach a hosted backend, and
// the objects they carry. The server makes one backend call per request
// frame, so n is the number of fault-carrying frames the clients sent.
type faultFrames struct {
	backend.Backend
	n, oids atomic.Int64
}

func (f *faultFrames) Access(oid backend.OID) error {
	f.n.Add(1)
	f.oids.Add(1)
	return f.Backend.Access(oid)
}

func (f *faultFrames) AccessBatch(oids []backend.OID) (int, error) {
	f.n.Add(1)
	f.oids.Add(int64(len(oids)))
	return f.Backend.AccessBatch(oids)
}

// rangedFaultFrames is faultFrames over a hosted backend with an ordered
// index, which the server then advertises and forwards.
type rangedFaultFrames struct {
	*faultFrames
	backend.Ranger
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
		objects, err := ex.Exec(tx)
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

// TestSuiteFramesPerOp is the wire-side face of the suites' access
// streams: an OO1 traversal, OO7's T1 and Q7, a HyperModel scan and the
// query workload's hot lookups cost at most one fault frame per 512
// objects faulted, not one per object.
func TestSuiteFramesPerOp(t *testing.T) {
	opts := func(hosted backend.Backend, name string) map[string]string {
		return map[string]string{"addr": serve(t, hosted, name)}
	}
	flat := func() *faultFrames {
		b, err := backend.Open("flatmem", backend.Config{})
		if err != nil {
			t.Fatal(err)
		}
		return &faultFrames{Backend: b}
	}

	op1 := oo1.DefaultParams()
	op1.NumParts, op1.RefZone = 2000, 20
	hosted1 := flat()
	op1.Backend, op1.BackendOptions = remote.Name, opts(hosted1, "flatmem")
	db1, err := oo1.Generate(op1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = backend.Shutdown(db1.Store) })

	// HyperModel served beside the OO1 database, so its node OIDs do not
	// start at 1: every operation must still find its nodes.
	ph := hypermodel.DefaultParams()
	ph.Levels, ph.Inputs = 4, 1
	ph.Backend, ph.BackendOptions = remote.Name, op1.BackendOptions
	dbh, err := hypermodel.Generate(ph)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = backend.Shutdown(dbh.Store) })
	if _, err := workload.Run(dbh.Scenario(nil, 1)); err != nil {
		t.Fatalf("HyperModel on a served store that already holds objects: %v", err)
	}

	op7 := oo7.DefaultParams()
	op7.NumComp, op7.AssmLevels = 30, 4
	hosted7 := flat()
	op7.Backend, op7.BackendOptions = remote.Name, opts(hosted7, "flatmem")
	db7, err := oo7.Generate(op7)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = backend.Shutdown(db7.Store) })

	pq := query.DefaultParams()
	pq.NumObjects = 2000
	paged, err := backend.Open("paged", backend.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rg, err := backend.AsRanger(paged)
	if err != nil {
		t.Fatal(err)
	}
	hostedQ := &faultFrames{Backend: paged}
	pq.Backend, pq.BackendOptions = remote.Name, opts(rangedFaultFrames{hostedQ, rg}, "paged")
	dbq, err := query.Generate(pq)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = backend.Shutdown(dbq.Store) })
	if !dbq.Indexed() {
		t.Fatal("the remote store does not forward the hosted ordered index")
	}

	for _, tc := range []struct {
		spec   *workload.Spec
		op     string
		hosted *faultFrames
	}{
		{db1.Scenario(nil, 1), "traversal", hosted1},
		{db7.Scenario(nil, 1), "T1", hosted7},
		{db7.Scenario(nil, 1), "Q7", hosted7},
		{dbh.Scenario(nil, 1), "seqScan/cold", hosted1},
		{dbq.Scenario(1), "hot-lookup", hostedQ},
	} {
		t.Run(tc.spec.Name+"/"+tc.op, func(t *testing.T) {
			for _, op := range tc.spec.Ops {
				if op.Name == tc.op {
					op.Count = 1
					tc.spec.Ops = []workload.Op{op}
				}
			}
			if len(tc.spec.Ops) != 1 {
				t.Fatalf("no op %s in %s", tc.op, tc.spec.Name)
			}
			frames0, oids0 := tc.hosted.n.Load(), tc.hosted.oids.Load()
			if _, err := workload.Run(tc.spec); err != nil {
				t.Fatal(err)
			}
			frames, objects := tc.hosted.n.Load()-frames0, tc.hosted.oids.Load()-oids0
			if objects < 2 {
				t.Fatalf("%d objects faulted: too few to tell batches from single faults", objects)
			}
			if most := (objects + 511) / 512; frames > most {
				t.Errorf("%d fault frames for %d objects, want at most %d", frames, objects, most)
			}
		})
	}
}
