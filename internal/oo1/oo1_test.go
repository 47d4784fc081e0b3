package oo1

import (
	"testing"

	"ocb/internal/backend"
	"ocb/internal/workload"
)

func smallParams() Params {
	p := DefaultParams()
	p.NumParts = 500
	p.RefZone = 5
	p.Lookups = 50
	p.Inserts = 10
	p.NRuns = 2
	p.BufferPages = 16
	return p
}

// runOp runs one named op of the CLIENTN=1 scenario through the workload
// engine — the only thing that times a suite op — and returns its
// aggregate.
func runOp(t *testing.T, db *Database, name string) workload.OpMetrics {
	t.Helper()
	spec := db.Scenario(nil, 1)
	for _, op := range spec.Ops {
		if op.Name == name {
			spec.Ops = []workload.Op{op}
		}
	}
	if len(spec.Ops) != 1 {
		t.Fatalf("scenario has no op %q", name)
	}
	res, err := workload.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	return res.PerOp[0]
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
	if db.NumParts() != p.NumParts {
		t.Fatalf("parts = %d", db.NumParts())
	}
	if len(db.Conns) != p.NumParts*p.ConnsPerPart {
		t.Fatalf("connections = %d, want %d", len(db.Conns), p.NumParts*p.ConnsPerPart)
	}
	if db.GenTime <= 0 {
		t.Fatal("generation time missing")
	}
	// Parts are created before connections: part ids coincide with OIDs.
	for i := 1; i <= p.NumParts; i++ {
		if db.ByID[i] != backend.OID(i) {
			t.Fatalf("part %d has OID %d", i, db.ByID[i])
		}
	}
}

func TestLocalityOfConnections(t *testing.T) {
	p := smallParams()
	p.NumParts = 2000
	p.RefZone = 20
	db, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	local, total := 0, 0
	for _, conn := range db.Conns {
		from := db.Parts[conn.From].ID
		to := db.Parts[conn.To].ID
		d := from - to
		if d < 0 {
			d = -d
		}
		total++
		if d <= p.RefZone {
			local++
		}
	}
	frac := float64(local) / float64(total)
	if frac < 0.85 {
		t.Fatalf("local connection fraction = %v, want ~0.9", frac)
	}
}

func TestTraversalVisitCount(t *testing.T) {
	p := smallParams()
	p.TraversalDepth = 3
	db, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	n, err := db.TraverseFrom(nil, db.ByID[1], false)
	if err != nil {
		t.Fatal(err)
	}
	// Parts visited: 1 + 3 + 9 + 27 = 40 at depth 3, duplicates allowed.
	if n != 40 {
		t.Fatalf("traversal visited %d parts, want 40", n)
	}
}

func TestTraversalOO1Shape(t *testing.T) {
	p := smallParams()
	db, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	root := db.ByID[db.src.IntRange(1, db.NumParts())]
	n, err := db.TraverseFrom(nil, root, false)
	if err != nil {
		t.Fatal(err)
	}
	// The canonical OO1 figure: depth 7, fan-out 3 -> 3280 parts.
	if n != 3280 {
		t.Fatalf("traversal visited %d parts, want 3280", n)
	}
}

func TestReverseTraversalRuns(t *testing.T) {
	p := smallParams()
	p.TraversalDepth = 2
	db, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	root := db.ByID[db.src.IntRange(1, db.NumParts())]
	n, err := db.TraverseFrom(nil, root, true)
	if err != nil {
		t.Fatal(err)
	}
	if n < 1 {
		t.Fatal("reverse traversal accessed nothing")
	}
}

func TestTraversalBadRoot(t *testing.T) {
	db, err := Generate(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.TraverseFrom(nil, 999999, false); err == nil {
		t.Fatal("bad root accepted")
	}
}

func TestLookup(t *testing.T) {
	p := smallParams()
	db, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	n, err := db.lookupOnce(db.src, db.NumParts(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != p.Lookups {
		t.Fatalf("lookup accessed %d, want %d", n, p.Lookups)
	}
}

func TestInsertGrowsDatabase(t *testing.T) {
	p := smallParams()
	db, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	before := db.NumParts()
	// The scenario runs the insert op NRuns times.
	ins := runOp(t, db, "insert")
	if ins.Count != int64(p.NRuns) {
		t.Fatalf("insert ran %d times, want %d", ins.Count, p.NRuns)
	}
	if want := before + p.NRuns*p.Inserts; db.NumParts() != want {
		t.Fatalf("parts after insert = %d, want %d", db.NumParts(), want)
	}
	if want := int64(p.NRuns * p.Inserts * (1 + p.ConnsPerPart)); ins.ObjectsTotal != want {
		t.Fatalf("insert created %d objects, want %d", ins.ObjectsTotal, want)
	}
	// Insert commits: some writes must have been charged.
	if ins.IOsTotal == 0 {
		t.Fatal("insert with commit performed no I/O")
	}
	if err := Check(db); err != nil {
		t.Fatal(err)
	}
}

func TestRunAll(t *testing.T) {
	p := smallParams()
	p.TraversalDepth = 3
	db, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := workload.Run(db.Scenario(nil, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerOp) != 4 {
		t.Fatalf("got %d operations", len(res.PerOp))
	}
	names := map[string]bool{}
	for _, om := range res.PerOp {
		names[om.Name] = true
		if om.Count != int64(p.NRuns) {
			t.Fatalf("%s ran %d times", om.Name, om.Count)
		}
	}
	for _, want := range []string{"lookup", "traversal", "reverse-traversal", "insert"} {
		if !names[want] {
			t.Fatalf("operation %s missing", want)
		}
	}
}

func TestDeterminism(t *testing.T) {
	p := smallParams()
	a, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	for oid, ca := range a.Conns {
		cb, ok := b.Conns[oid]
		if !ok || ca.From != cb.From || ca.To != cb.To {
			t.Fatalf("connection %d differs between runs", oid)
		}
	}
}

func TestValidate(t *testing.T) {
	bad := []func(*Params){
		func(p *Params) { p.NumParts = 1 },
		func(p *Params) { p.ConnsPerPart = 0 },
		func(p *Params) { p.RefZone = -1 },
		func(p *Params) { p.PLocal = 2 },
		func(p *Params) { p.PartSize = -1 },
		func(p *Params) { p.NRuns = 0 },
	}
	for i, f := range bad {
		p := DefaultParams()
		f(&p)
		if err := p.Validate(); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
}

func TestAllOIDs(t *testing.T) {
	p := smallParams()
	db, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	oids := db.AllOIDs()
	want := p.NumParts * (1 + p.ConnsPerPart)
	if len(oids) != want {
		t.Fatalf("AllOIDs = %d, want %d", len(oids), want)
	}
}
