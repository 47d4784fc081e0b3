package core

import (
	"testing"

	"ocb/internal/backend"
	"ocb/internal/lewis"
)

func genericSmall() Params {
	p := GenericParams()
	p.NO = 400
	p.SupRef = 400
	p.NC = 5
	p.SupClass = 5
	p.BufferPages = 16
	p.ColdN = 30
	p.HotN = 60
	return p
}

func TestGenericParamsValidate(t *testing.T) {
	p := GenericParams()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	sum := p.PSet + p.PSimple + p.PHier + p.PStoch +
		p.PUpdate + p.PInsert + p.PDelete + p.PScan + p.PRange
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("probabilities sum to %v", sum)
	}
}

func TestInsertObjectMaintainsInvariants(t *testing.T) {
	p := genericSmall()
	db := MustGenerate(p)
	src := lewis.New(99)
	before := db.NumLive()
	oid, err := db.InsertObject(src)
	if err != nil {
		t.Fatal(err)
	}
	if db.NumLive() != before+1 {
		t.Fatalf("live = %d, want %d", db.NumLive(), before+1)
	}
	if oid != backend.OID(p.NO+1) {
		t.Fatalf("new OID = %d", oid)
	}
	if class, _ := db.ClassOf(oid); class < 1 || class > p.NC {
		t.Fatalf("new class = %d", class)
	}
	if err := CheckDatabase(db); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteObjectRepairsGraph(t *testing.T) {
	p := genericSmall()
	db := MustGenerate(p)
	// Pick a victim with both in- and out-links.
	var victim backend.OID
	for i := 1; i <= p.NO; i++ {
		oid := backend.OID(i)
		if len(db.BackRef(oid)) > 0 {
			for _, r := range refsOf(db, oid) {
				if r != backend.NilOID {
					victim = oid
					break
				}
			}
		}
		if victim != backend.NilOID {
			break
		}
	}
	if victim == backend.NilOID {
		t.Skip("no suitable victim")
	}
	referrers := append([]backend.OID(nil), db.BackRef(victim)...)
	if err := db.DeleteObject(victim); err != nil {
		t.Fatal(err)
	}
	if db.Live(victim) {
		t.Fatal("victim still reachable")
	}
	if db.Store.Exists(victim) {
		t.Fatal("victim still stored")
	}
	// No referrer may still point at the victim.
	for _, from := range referrers {
		for _, r := range refsOf(db, from) {
			if r == victim {
				t.Fatalf("object %d still references deleted %d", from, victim)
			}
		}
	}
	if err := CheckDatabase(db); err != nil {
		t.Fatal(err)
	}
	// Double delete fails cleanly.
	if err := db.DeleteObject(victim); err == nil {
		t.Fatal("double delete accepted")
	}
}

func TestResolveLive(t *testing.T) {
	p := genericSmall()
	db := MustGenerate(p)
	if got, ok := db.ResolveLive(5); !ok || got != 5 {
		t.Fatalf("live OID resolved to %d, %v", got, ok)
	}
	if err := db.DeleteObject(5); err != nil {
		t.Fatal(err)
	}
	got, ok := db.ResolveLive(5)
	if !ok || got == 5 || !db.Live(got) {
		t.Fatalf("deleted OID resolved to %d, %v", got, ok)
	}
	// Out-of-range input still resolves somewhere live.
	if got, ok := db.ResolveLive(backend.OID(p.NO + 500)); !ok || !db.Live(got) {
		t.Fatalf("out-of-range resolved to %d, %v", got, ok)
	}
}

func TestGenericOperationsViaExecutor(t *testing.T) {
	p := genericSmall()
	db := MustGenerate(p)
	ex := NewExecutor(db, nil, lewis.New(7))

	up, err := ex.Exec(Transaction{Type: UpdateOp, Root: 3})
	if err != nil {
		t.Fatal(err)
	}
	if up != 1 {
		t.Fatalf("update touched %d", up)
	}

	ins, err := ex.Exec(Transaction{Type: InsertOp})
	if err != nil {
		t.Fatal(err)
	}
	if ins < 1 {
		t.Fatal("insert touched nothing")
	}

	del, err := ex.Exec(Transaction{Type: DeleteOp, Root: 10})
	if err != nil {
		t.Fatal(err)
	}
	if del < 1 {
		t.Fatal("delete touched nothing")
	}

	scan, err := ex.Exec(Transaction{Type: ScanOp})
	if err != nil {
		t.Fatal(err)
	}
	if scan != db.NumLive() {
		t.Fatalf("scan touched %d, live = %d", scan, db.NumLive())
	}

	rng, err := ex.Exec(Transaction{Type: RangeOp, Root: 50})
	if err != nil {
		t.Fatal(err)
	}
	width := p.NO / 100
	if width < 1 {
		width = 1
	}
	if rng < 1 || rng > width {
		t.Fatalf("range touched %d, want 1..%d", rng, width)
	}

	if err := CheckDatabase(db); err != nil {
		t.Fatal(err)
	}
}

func TestGenericWorkloadEndToEnd(t *testing.T) {
	p := genericSmall()
	db := MustGenerate(p)
	cold, warm := runProtocol(t, NewRunner(db, nil))
	if warm.Executed != int64(p.HotN) {
		t.Fatalf("warm tx = %d", warm.Executed)
	}
	// Every one of the nine types must have occurred across the run.
	for typ := TxType(0); typ < NumTxTypes; typ++ {
		if cold.PerOp[typ].Count+warm.PerOp[typ].Count == 0 {
			t.Fatalf("type %v never sampled", typ)
		}
	}
	if err := CheckDatabase(db); err != nil {
		t.Fatal(err)
	}
}

func TestGenericWorkloadDeterministic(t *testing.T) {
	run := func() (int, int) {
		p := genericSmall()
		db := MustGenerate(p)
		r := NewRunner(db, nil)
		if _, err := r.RunPhase("gen", 80, 11); err != nil {
			t.Fatal(err)
		}
		return db.NumLive(), db.NO()
	}
	l1, o1 := run()
	l2, o2 := run()
	if l1 != l2 || o1 != o2 {
		t.Fatalf("nondeterministic mutation: %d/%d vs %d/%d", l1, o1, l2, o2)
	}
}

func TestGenericWorkloadWithDSTC(t *testing.T) {
	// Clustering policies must survive a mutating workload (stale
	// statistics for deleted objects are dropped at unit construction).
	p := genericSmall()
	db := MustGenerate(p)
	rec := &recordingPolicy{}
	r := NewRunner(db, rec)
	if _, err := r.RunPhase("observe", 60, 3); err != nil {
		t.Fatal(err)
	}
	if rec.endTx != 60 {
		t.Fatalf("transactions observed = %d", rec.endTx)
	}
}

func TestUpdateCommitsWrites(t *testing.T) {
	p := genericSmall()
	db := MustGenerate(p)
	db.Store.DropCache()
	db.Store.ResetStats()
	ex := NewExecutor(db, nil, lewis.New(1))
	if _, err := ex.Exec(Transaction{Type: UpdateOp, Root: 1}); err != nil {
		t.Fatal(err)
	}
	if w := db.Store.Stats().Disk.TotalWrites(); w == 0 {
		t.Fatal("update committed no writes")
	}
}

func TestScanAfterChurnMatchesLiveSet(t *testing.T) {
	p := genericSmall()
	db := MustGenerate(p)
	src := lewis.New(21)
	for i := 0; i < 10; i++ {
		if _, err := db.InsertObject(src); err != nil {
			t.Fatal(err)
		}
	}
	for oid := backend.OID(20); oid < 40; oid += 2 {
		if err := db.DeleteObject(oid); err != nil {
			t.Fatal(err)
		}
	}
	want := p.NO + 10 - 10
	if db.NumLive() != want {
		t.Fatalf("live = %d, want %d", db.NumLive(), want)
	}
	ex := NewExecutor(db, nil, src)
	scan, err := ex.Exec(Transaction{Type: ScanOp})
	if err != nil {
		t.Fatal(err)
	}
	if scan != want {
		t.Fatalf("scan = %d, want %d", scan, want)
	}
	if err := CheckDatabase(db); err != nil {
		t.Fatal(err)
	}
}
