package oo7

import (
	"testing"

	"ocb/internal/workload"
)

// TestEngineGoldenCLIENTN1 pins the CLIENTN=1 suite metrics to the exact
// values the pre-engine run loop produced on the same seed (captured
// before the workload-engine port). The structural round trip runs after
// the fourteen reads, so their values are unaffected by it; its own row
// was captured from the engine.
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
		ios     uint64
		objects int64
	}{
		{"T1", 0, 540}, {"T2a", 14, 540}, {"T2b", 14, 540}, {"T3a", 14, 540},
		{"T6", 0, 67}, {"T8", 0, 1}, {"T9", 0, 20},
		{"Q1", 0, 10}, {"Q2", 0, 0}, {"Q3", 0, 11}, {"Q4", 0, 20},
		{"Q5", 0, 36}, {"Q7", 0, 100}, {"Q8", 0, 120},
		{"insert-delete", 3, 44}, // 22 objects in, the same 22 out
	}
	if len(res.PerOp) != len(gold) {
		t.Fatalf("got %d results", len(res.PerOp))
	}
	for i, g := range gold {
		om := res.PerOp[i]
		if om.Name != g.name || om.IOsTotal != g.ios || om.ObjectsTotal != g.objects {
			t.Errorf("%s: got ios=%d objects=%d, want %d/%d (pre-engine golden)",
				om.Name, om.IOsTotal, om.ObjectsTotal, g.ios, g.objects)
		}
	}
}

// TestScenarioMixedMultiClient is the mixed-mode CLIENTN>1 regression
// (see the oo1 counterpart): sampled mixes draw from per-client sources
// outside the lock, so none may alias the generation stream. Run under
// -race in CI.
func TestScenarioMixedMultiClient(t *testing.T) {
	db, err := Generate(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	spec := db.Scenario(nil, 4)
	spec.Measured = 60
	res, err := workload.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Executed != 4*60 {
		t.Fatalf("executed = %d, want 240", res.Executed)
	}
	if err := Check(db); err != nil {
		t.Fatalf("post-run invariants: %v", err)
	}
}

// TestScenarioMultiClient runs the full OO7 scenario — including the
// insert+delete structural round trip — with CLIENTN=4. Run under -race
// in CI.
func TestScenarioMultiClient(t *testing.T) {
	db, err := Generate(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	const clients = 4
	res, err := workload.Run(db.Scenario(nil, clients))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerOp) != 15 {
		t.Fatalf("scenario has %d ops, want 15", len(res.PerOp))
	}
	for _, om := range res.PerOp {
		if om.Count != clients {
			t.Fatalf("%s count = %d, want %d", om.Name, om.Count, clients)
		}
	}
	// Round trips leave the database at its original size and intact.
	if err := Check(db); err != nil {
		t.Fatalf("post-run invariants: %v", err)
	}
}
