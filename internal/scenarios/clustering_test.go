package scenarios

import (
	"testing"

	"ocb/internal/core"
	"ocb/internal/dstc"
)

// TestClusteringReorganizeChargesNoTransactionIOs pins the protocol's
// shape and its one reorganize step: the phases are before, one observe
// per seed, and after, and the after phase's Setup charges every I/O it
// causes to the clustering class — none to transactions — and reports
// exactly that count as the result's overhead.
func TestClusteringReorganizeChargesNoTransactionIOs(t *testing.T) {
	p := core.CluBParams()
	p.NO, p.SupRef, p.BufferPages = 2000, 2000, 16
	db, err := core.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	proto := OCBClustering(db, dstc.NewCluBStyle(), 40, 20, 7, []int64{8, 9})
	res := new(ClusteringResult)
	var reorgErr error
	sc := proto.scenario("t", "", res, &reorgErr)

	var names []string
	for _, ph := range sc.Phases {
		names = append(names, ph.Name)
	}
	if got := names; len(got) != 4 || got[0] != "before" || got[1] != "observe" || got[2] != "observe" || got[3] != "after" {
		t.Fatalf("phases = %v, want before observe observe after", got)
	}
	for _, ph := range sc.Phases[:3] {
		if _, err := (&Scenario{Phases: []Phase{ph}}).Run(); err != nil {
			t.Fatal(err)
		}
	}
	before := db.Store.DiskStats()
	if _, err := sc.Phases[3].Setup(); err != nil || reorgErr != nil {
		t.Fatalf("reorganize: %v / %v", err, reorgErr)
	}
	delta := db.Store.DiskStats().Sub(before)
	if delta.TransactionIOs() != 0 {
		t.Fatalf("reorganization charged %d transaction I/Os, want 0", delta.TransactionIOs())
	}
	if delta.ClusteringIOs() == 0 || res.ClusteringIOs != delta.ClusteringIOs() {
		t.Fatalf("clustering I/Os: result %d, disk delta %d", res.ClusteringIOs, delta.ClusteringIOs())
	}
	if res.Reloc.ObjectsMoved == 0 {
		t.Fatal("nothing moved")
	}
}

// TestNewPolicy: every policy name builds a policy of that name, "none"
// is the nil no-clustering control, and an unknown name is an error.
func TestNewPolicy(t *testing.T) {
	p := core.DefaultParams()
	p.NO, p.SupRef = 200, 200
	db, err := core.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, name := range PolicyNames() {
		policy, err := NewPolicy(name, db)
		switch {
		case err != nil:
			t.Errorf("%s: %v", name, err)
		case name == "none":
			if policy != nil {
				t.Errorf("none = %v, want nil", policy)
			}
		case policy == nil || policy.Name() != name:
			t.Errorf("%s built %v", name, policy)
		}
	}
	if _, err := NewPolicy("nosuch", db); err == nil {
		t.Error("unknown policy accepted")
	}
}
