package hypermodel

import (
	"testing"

	"ocb/internal/backend"
	"ocb/internal/workload"
)

// runOp runs one operation's cold/warm pair of the CLIENTN=1 scenario
// through the workload engine — the only thing that times a suite op —
// and returns the two aggregates.
func runOp(t *testing.T, db *Database, name OpName) (cold, warm workload.OpMetrics) {
	t.Helper()
	spec := db.Scenario(nil, 1)
	for i, n := range AllOperations() {
		if n == name {
			spec.Ops = spec.Ops[2*i : 2*i+2]
		}
	}
	if len(spec.Ops) != 2 || spec.Ops[0].Name != string(name)+"/cold" {
		t.Fatalf("scenario has no cold/warm pair for %s", name)
	}
	res, err := workload.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	return res.PerOp[0], res.PerOp[1]
}

func smallParams() Params {
	p := DefaultParams()
	p.Levels = 3 // 1 + 5 + 25 + 125 = 156 nodes
	p.Inputs = 5
	p.BufferPages = 16
	return p
}

func TestGenerateCanonicalShape(t *testing.T) {
	p := DefaultParams()
	p.BufferPages = 64
	db, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if db.NumNodes() != 3906 {
		t.Fatalf("nodes = %d, want the canonical 3906", db.NumNodes())
	}
	if err := Check(db); err != nil {
		t.Fatal(err)
	}
	if db.GenTime <= 0 {
		t.Fatal("generation time missing")
	}
}

func TestGenerateSmall(t *testing.T) {
	db, err := Generate(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	if db.NumNodes() != 156 {
		t.Fatalf("nodes = %d, want 156", db.NumNodes())
	}
	if err := Check(db); err != nil {
		t.Fatal(err)
	}
}

func TestPartLinksStayOneLevelDown(t *testing.T) {
	db, err := Generate(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	for id := 1; id <= db.NumNodes(); id++ {
		n := db.Nodes[id]
		if n.Level < db.P.Levels && len(n.Parts) != db.P.PartFanout {
			t.Fatalf("node %d has %d parts", id, len(n.Parts))
		}
		if n.Level == db.P.Levels && len(n.Parts) != 0 {
			t.Fatalf("leaf %d has parts", id)
		}
	}
}

func TestAllOperationsRun(t *testing.T) {
	db, err := Generate(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	res, err := workload.Run(db.Scenario(nil, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerOp) != 40 {
		t.Fatalf("got %d ops, want a cold and a warm pass for each of the benchmark's 20", len(res.PerOp))
	}
	for _, om := range res.PerOp {
		if om.Count != 1 {
			t.Fatalf("%s ran %d passes", om.Name, om.Count)
		}
		if om.ObjectsTotal < 1 {
			t.Fatalf("%s accessed nothing", om.Name)
		}
	}
}

func TestWarmRunBenefitsFromCache(t *testing.T) {
	p := smallParams()
	p.Levels = 4 // 781 nodes: larger than the 16-page buffer's worth
	db, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	db.Store.DropCache()
	cold, warm := runOp(t, db, NameLookup)
	// The warm run repeats the exact same 5 lookups: all cache hits
	// (5 nodes fit any buffer).
	if warm.IOsTotal >= cold.IOsTotal && cold.IOsTotal > 0 {
		t.Fatalf("warm run not cheaper: cold=%d warm=%d", cold.IOsTotal, warm.IOsTotal)
	}
}

func TestSeqScanTouchesEverything(t *testing.T) {
	db, err := Generate(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	cold, _ := runOp(t, db, SeqScan)
	if want := int64(db.NumNodes() * db.P.Inputs); cold.ObjectsTotal != want {
		t.Fatalf("seqScan accessed %d, want %d", cold.ObjectsTotal, want)
	}
}

func TestRangeLookupHundredSelectivity(t *testing.T) {
	db, err := Generate(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	n, upd, err := db.execute(RangeLookupHundred, 37, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if upd {
		t.Fatal("range lookup flagged as update")
	}
	want := 0
	for id := 1; id <= db.NumNodes(); id++ {
		if db.Nodes[id].Hundred == 37 {
			want++
		}
	}
	if n != want {
		t.Fatalf("hundred=37 matched %d, want %d", n, want)
	}
}

func TestRangeLookupMillionSelectivity(t *testing.T) {
	p := smallParams()
	p.Levels = 4
	db, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	input := 3
	lo := db.Nodes[input].Million
	hi := lo + db.P.MillionRange/100
	want := 0
	for id := 1; id <= db.NumNodes(); id++ {
		if m := db.Nodes[id].Million; m >= lo && m < hi {
			want++
		}
	}
	n, _, err := db.execute(RangeLookupMillion, input, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != want {
		t.Fatalf("million range matched %d, want %d", n, want)
	}
}

func TestEditingCommits(t *testing.T) {
	db, err := Generate(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	db.Store.DropCache()
	db.Store.ResetStats()
	cold, _ := runOp(t, db, EditNode)
	// Updates must commit: writes charged during the cold run.
	if cold.IOsTotal == 0 {
		t.Fatal("edit committed nothing")
	}
	if w := db.Store.Stats().Disk.TotalWrites(); w == 0 {
		t.Fatal("no writes after update commit")
	}
}

func TestClosureChildrenFromRoot(t *testing.T) {
	db, err := Generate(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	// Closure over children from the root touches the whole tree once.
	n, _, err := db.execute(ClosureChildren, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != db.NumNodes() {
		t.Fatalf("closure from root accessed %d, want %d", n, db.NumNodes())
	}
}

func TestClosureRefToBounded(t *testing.T) {
	db, err := Generate(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	n, _, err := db.execute(ClosureRefTo, 5, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n < 1 || n > 26 {
		t.Fatalf("refTo closure accessed %d, want 1..26", n)
	}
}

func TestUnknownOperation(t *testing.T) {
	db, err := Generate(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.execute(OpName("bogus"), 1, nil, nil); err == nil {
		t.Fatal("unknown operation accepted")
	}
}

func TestValidate(t *testing.T) {
	bad := []func(*Params){
		func(p *Params) { p.Levels = 0 },
		func(p *Params) { p.Fanout = 0 },
		func(p *Params) { p.PartFanout = -1 },
		func(p *Params) { p.NodeSize = -1 },
		func(p *Params) { p.Inputs = 0 },
		func(p *Params) { p.MillionRange = 0 },
	}
	for i, f := range bad {
		p := DefaultParams()
		f(&p)
		if err := p.Validate(); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
}

func TestRefFromInverse(t *testing.T) {
	db, err := Generate(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for id := 1; id <= db.NumNodes(); id++ {
		n := db.Nodes[id]
		target := db.node(n.RefTo)
		found := false
		for _, rf := range target.RefFrom {
			if rf == n.OID {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("node %d missing from refFrom of its target", id)
		}
		count++
	}
	if count == 0 {
		t.Fatal("no nodes checked")
	}
	var total int
	for id := 1; id <= db.NumNodes(); id++ {
		total += len(db.Nodes[id].RefFrom)
	}
	if total != db.NumNodes() {
		t.Fatalf("refFrom total = %d, want %d", total, db.NumNodes())
	}
	_ = backend.NilOID
}
