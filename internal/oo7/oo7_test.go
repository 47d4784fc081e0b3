package oo7

import (
	"testing"

	"ocb/internal/workload"
)

func smallParams() Params {
	p := DefaultParams()
	p.NumComp = 20
	p.NumAtomic = 5
	p.AssmLevels = 3
	p.BufferPages = 32
	return p
}

func TestGenerateShape(t *testing.T) {
	p := smallParams()
	db, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(db); err != nil {
		t.Fatal(err)
	}
	// 1 + 3 + 9 assemblies; 9 base.
	if len(db.Assms) != 13 || len(db.BaseAssm) != 9 {
		t.Fatalf("assemblies = %d, base = %d", len(db.Assms), len(db.BaseAssm))
	}
	if db.NumAtomics() != p.NumComp*p.NumAtomic {
		t.Fatalf("atomics = %d", db.NumAtomics())
	}
	if len(db.Docs) != p.NumComp {
		t.Fatalf("documents = %d", len(db.Docs))
	}
	if db.GenTime <= 0 {
		t.Fatal("generation time missing")
	}
}

func TestT1VisitsEveryReferencedAtomicOnce(t *testing.T) {
	db, err := Generate(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	n, err := db.traversalBody(0, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Minimum: all 13 assemblies + for each of the 9 base assemblies,
	// 3 composites with 5 atomics each (plus connection objects).
	if n < 13+9*3*(1+5) {
		t.Fatalf("T1 accessed only %d objects", n)
	}
}

func TestT6SparserThanT1(t *testing.T) {
	db, err := Generate(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	t1, err := db.traversalBody(0, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	t6, err := db.traversalBody(0, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if t6 >= t1 {
		t.Fatalf("T6 (%d) not sparser than T1 (%d)", t6, t1)
	}
}

func TestT2UpdatesCommit(t *testing.T) {
	db, err := Generate(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	db.Store.ResetStats()
	if _, err := db.traversalBody(1, false, nil); err != nil { // T2a
		t.Fatal(err)
	}
	w1 := db.Store.Stats().Disk.TotalWrites()
	if w1 == 0 {
		t.Fatal("T2a committed nothing")
	}
	if _, err := db.traversalBody(-1, false, nil); err != nil { // T2b
		t.Fatal(err)
	}
	w2 := db.Store.Stats().Disk.TotalWrites()
	if w2 <= w1 {
		t.Fatal("T2b (update all) wrote no more than T2a (update one)")
	}
}

func TestQueries(t *testing.T) {
	db, err := Generate(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	q1, err := db.q1Body(db.src, len(db.AtomicID), nil)
	if err != nil {
		t.Fatal(err)
	}
	if q1 != 10 {
		t.Fatalf("Q1 accessed %d, want 10", q1)
	}
	q2, err := db.rangeBody(0.01, db.src, nil)
	if err != nil {
		t.Fatal(err)
	}
	q3, err := db.rangeBody(0.10, db.src, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Q3 (10% selectivity) must select roughly 10x Q2 (1%); with a 100
	// atomic-part database sampling noise is large, so just require more.
	if q3 <= q2 {
		t.Fatalf("Q3 (%d) not broader than Q2 (%d)", q3, q2)
	}
	q4, err := db.q4Body(db.src, len(db.Comps), nil)
	if err != nil {
		t.Fatal(err)
	}
	if q4 != 20 {
		t.Fatalf("Q4 accessed %d, want 20 (10 docs + 10 roots)", q4)
	}
	q5, err := db.q5Body(nil)
	if err != nil {
		t.Fatal(err)
	}
	if q5 < len(db.BaseAssm) {
		t.Fatalf("Q5 accessed %d", q5)
	}
	q7, err := db.q7Body(nil)
	if err != nil {
		t.Fatal(err)
	}
	if q7 != db.NumAtomics() {
		t.Fatalf("Q7 accessed %d, want %d", q7, db.NumAtomics())
	}
}

func TestInsertDeleteRoundTrip(t *testing.T) {
	db, err := Generate(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	objectsBefore := db.Store.Stats().Objects
	atomicsBefore := db.NumAtomics()

	iosBefore := db.Store.Stats().Disk.TransactionIOs()
	ids, _, err := db.insertBody(db.src, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 {
		t.Fatalf("inserted %d composites", len(ids))
	}
	if db.Store.Stats().Disk.TransactionIOs() == iosBefore {
		t.Fatal("insert committed no I/O")
	}
	if db.Store.Stats().Objects <= objectsBefore {
		t.Fatal("store did not grow")
	}
	if err := Check(db); err != nil {
		t.Fatal(err)
	}

	if _, err := db.deleteBody(ids); err != nil {
		t.Fatal(err)
	}
	if db.Store.Stats().Objects != objectsBefore {
		t.Fatalf("store objects = %d, want %d after delete", db.Store.Stats().Objects, objectsBefore)
	}
	// AtomicID keeps dense history; live atomics map must be back to size.
	if len(db.Atomics) != atomicsBefore {
		t.Fatalf("live atomics = %d, want %d", len(db.Atomics), atomicsBefore)
	}
	// Deleting again must fail cleanly.
	if _, err := db.deleteBody(ids); err == nil {
		t.Fatal("double delete accepted")
	}
}

func TestRunAll(t *testing.T) {
	db, err := Generate(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	res, err := workload.Run(db.Scenario(nil, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerOp) != 15 { // 14 reads + the insert-delete round trip
		t.Fatalf("got %d operations", len(res.PerOp))
	}
	for _, om := range res.PerOp {
		if om.Name == "" || om.Count != 1 {
			t.Fatalf("bad result %+v", om)
		}
		// Selective range queries (Q2 at 1%) may legitimately match zero
		// atomics on a 100-atomic test database; everything else touches
		// at least one object.
		if om.ObjectsTotal < 1 && om.Name != "Q2" && om.Name != "Q3" {
			t.Fatalf("%s accessed nothing", om.Name)
		}
	}
}

func TestValidate(t *testing.T) {
	bad := []func(*Params){
		func(p *Params) { p.NumComp = 0 },
		func(p *Params) { p.NumAtomic = 0 },
		func(p *Params) { p.ConnPerAtomic = -1 },
		func(p *Params) { p.AssmLevels = 0 },
		func(p *Params) { p.AssmFanout = 0 },
		func(p *Params) { p.CompPerAssm = 0 },
		func(p *Params) { p.DocSize = -1 },
		func(p *Params) { p.DateRange = 0 },
	}
	for i, f := range bad {
		p := DefaultParams()
		f(&p)
		if err := p.Validate(); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a, err := Generate(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	for i, ca := range a.Comps {
		cb := b.Comps[i]
		if ca.BuildDate != cb.BuildDate || ca.Root != cb.Root {
			t.Fatalf("composite %d differs", i)
		}
	}
	if a.RootAssm != b.RootAssm {
		t.Fatal("assembly roots differ")
	}
}

func TestDocumentOperations(t *testing.T) {
	db, err := Generate(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	t8, err := db.t8Body(db.src, len(db.Comps), nil)
	if err != nil {
		t.Fatal(err)
	}
	if t8 != 1 {
		t.Fatalf("T8 accessed %d, want 1 document", t8)
	}
	t9, err := db.t9Body(nil)
	if err != nil {
		t.Fatal(err)
	}
	if t9 != len(db.Docs) {
		t.Fatalf("T9 accessed %d, want %d documents", t9, len(db.Docs))
	}
	q8, err := db.q8Body(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := len(db.Docs) * (1 + db.P.NumAtomic)
	if q8 != want {
		t.Fatalf("Q8 accessed %d, want %d (docs joined with atomics)", q8, want)
	}
	// Documents are 2000 bytes: T9 over 20 composites touches 20 distinct
	// documents, each on its own page region — from a cold cache the
	// engine must charge the scan I/O.
	db.Store.DropCache()
	spec := db.Scenario(nil, 1)
	spec.Ops = spec.Ops[6:7]
	if spec.Ops[0].Name != "T9" {
		t.Fatalf("op 6 is %s, want T9", spec.Ops[0].Name)
	}
	res, err := workload.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.PerOp[0].IOsTotal == 0 {
		t.Fatal("document scan performed no I/O even from cold cache")
	}
}
