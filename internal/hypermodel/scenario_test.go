package hypermodel

import (
	"testing"

	"ocb/internal/workload"
)

// TestEngineGoldenCLIENTN1 pins the CLIENTN=1 suite metrics to the exact
// values the pre-engine run loop produced on the same seed (captured
// before the workload-engine port): cold/warm I/Os and cold-run objects
// per operation.
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
		name       OpName
		cold, warm uint64
		objects    int64
	}{
		{NameLookup, 4, 0, 5}, {NameOIDLookup, 4, 0, 5},
		{RangeLookupHundred, 3, 0, 7}, {RangeLookupMillion, 5, 0, 18},
		{GroupLookupChildren, 3, 0, 5}, {GroupLookupParts, 3, 0, 5}, {GroupLookupRefTo, 4, 0, 10},
		{RefLookupParent, 4, 0, 10}, {RefLookupPartOf, 4, 0, 11}, {RefLookupRefFrom, 3, 0, 6},
		{SeqScan, 5, 0, 780},
		{ClosureChildren, 3, 0, 5}, {ClosureParts, 5, 0, 15}, {ClosureRefTo, 5, 0, 130},
		{ClosureChildrenDpth, 5, 0, 35}, {ClosurePartsDpth, 5, 0, 15}, {ClosureRefToDpth, 5, 0, 30},
		{EditNode, 8, 4, 5}, {EditText, 10, 5, 10}, {EditMillion, 4, 2, 5},
	}
	if len(res.PerOp) != 2*len(gold) {
		t.Fatalf("got %d results", len(res.PerOp))
	}
	for i, g := range gold {
		cold, warm := res.PerOp[2*i], res.PerOp[2*i+1]
		if cold.Name != string(g.name)+"/cold" || warm.Name != string(g.name)+"/warm" ||
			cold.IOsTotal != g.cold || warm.IOsTotal != g.warm || cold.ObjectsTotal != g.objects {
			t.Errorf("%s: got cold=%d warm=%d objects=%d, want %d/%d/%d (pre-engine golden)",
				g.name, cold.IOsTotal, warm.IOsTotal, cold.ObjectsTotal, g.cold, g.warm, g.objects)
		}
	}
}

// TestScenarioMultiClient runs the HyperModel scenario with CLIENTN=4:
// edits take the exclusive lock, lookups and closures share it. Run
// under -race in CI.
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
	if len(res.PerOp) != 40 {
		t.Fatalf("scenario has %d ops, want 40 (20 cold + 20 warm)", len(res.PerOp))
	}
	for _, om := range res.PerOp {
		if om.Count != clients {
			t.Fatalf("%s count = %d, want %d", om.Name, om.Count, clients)
		}
	}
	if err := Check(db); err != nil {
		t.Fatalf("post-run invariants: %v", err)
	}
}
