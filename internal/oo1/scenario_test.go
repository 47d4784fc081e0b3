package oo1

import (
	"testing"

	"ocb/internal/workload"
)

// TestEngineGoldenCLIENTN1 pins the CLIENTN=1 suite metrics to the exact
// values the pre-engine run loop produced on the same seed (captured
// before the workload-engine port): the engine must measure exactly the
// same benchmark.
func TestEngineGoldenCLIENTN1(t *testing.T) {
	db, err := Generate(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	res, err := workload.Run(db.Scenario(nil, 1))
	if err != nil {
		t.Fatal(err)
	}
	gold := []struct {
		name    string
		meanIOs float64
		objects int64
	}{
		{"lookup", 4.5, 100},
		{"traversal", 18.5, 6560},
		{"reverse-traversal", 668, 22741},
		{"insert", 1.5, 80},
	}
	if len(res.PerOp) != len(gold) {
		t.Fatalf("got %d results", len(res.PerOp))
	}
	for i, g := range gold {
		om := res.PerOp[i]
		meanIOs := float64(om.IOsTotal) / float64(om.Count)
		if om.Name != g.name || meanIOs != g.meanIOs || om.ObjectsTotal != g.objects {
			t.Errorf("%s: got meanIOs=%v objects=%d, want %v/%d (pre-engine golden)",
				om.Name, meanIOs, om.ObjectsTotal, g.meanIOs, g.objects)
		}
	}
}

// TestScenarioMultiClient runs the OO1 scenario with CLIENTN=4 — reads
// share the suite lock, inserts take it exclusively — and checks the
// merged counts. Run under -race in CI.
func TestScenarioMultiClient(t *testing.T) {
	p := smallParams()
	db, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	const clients = 4
	res, err := workload.Run(db.Scenario(nil, clients))
	if err != nil {
		t.Fatal(err)
	}
	if res.Clients != clients {
		t.Fatalf("clients = %d", res.Clients)
	}
	wantPerOp := int64(clients * p.NRuns)
	for _, om := range res.PerOp {
		if om.Count != wantPerOp {
			t.Fatalf("%s count = %d, want %d", om.Name, om.Count, wantPerOp)
		}
	}
	if res.Executed != 4*wantPerOp {
		t.Fatalf("executed = %d", res.Executed)
	}
	// The inserts really happened, serialized by the exclusive lock.
	wantParts := p.NumParts + clients*p.NRuns*p.Inserts
	if db.NumParts() != wantParts {
		t.Fatalf("parts after run = %d, want %d", db.NumParts(), wantParts)
	}
	if err := Check(db); err != nil {
		t.Fatalf("post-run invariants: %v", err)
	}
}

// TestScenarioMixedMultiClient is the mixed-mode CLIENTN>1 regression:
// the engine samples the op mix from each client's source outside the
// suite lock, so no client may share the database's generation stream
// (a shared source raced with the insert bodies before the clients<=1
// guard in Scenario's Source). Run under -race in CI.
func TestScenarioMixedMultiClient(t *testing.T) {
	p := smallParams()
	db, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	spec := db.Scenario(nil, 4)
	spec.Measured = 100
	res, err := workload.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Executed != 4*100 {
		t.Fatalf("executed = %d, want 400", res.Executed)
	}
	if err := Check(db); err != nil {
		t.Fatalf("post-run invariants: %v", err)
	}
}

// TestScenarioMixedMode samples the op set by weight instead of running
// the fixed program.
func TestScenarioMixedMode(t *testing.T) {
	db, err := Generate(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	spec := db.Scenario(nil, 1)
	spec.Measured = 60
	// Lookups only: drop the other ops' weights.
	for i := range spec.Ops {
		if spec.Ops[i].Name != "lookup" {
			spec.Ops[i].Weight = 0
		}
	}
	res, err := workload.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Executed != 60 || res.PerOp[0].Count != 60 {
		t.Fatalf("mixed run executed %d ops, lookup %d", res.Executed, res.PerOp[0].Count)
	}
}
