package club_test

import (
	"testing"

	"ocb/internal/backend"
	"ocb/internal/club"
	"ocb/internal/cluster"
	"ocb/internal/dstc"
	"ocb/internal/oo1"
	"ocb/internal/scenarios"
)

// smallParams returns a scaled-down CluB geometry that preserves the
// regime the gain depends on: reference windows spanning several pages
// (dilution) and a buffer smaller than a traversal footprint (thrash).
func smallParams() club.Params {
	p := club.DefaultParams()
	p.OO1.NumParts = 8000
	p.OO1.RefZone = 160
	p.OO1.TraversalDepth = 5
	p.OO1.BufferPages = 64
	p.Roots = 8
	p.Repeats = 3
	return p
}

// generate builds the CluB database and releases it when the test ends.
func generate(t *testing.T, p club.Params) *oo1.Database {
	t.Helper()
	db, err := oo1.Generate(p.OO1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = backend.Shutdown(db.Store) })
	return db
}

// run executes the CluB protocol over a freshly generated database.
func run(t *testing.T, p club.Params, policy cluster.Policy) *scenarios.ClusteringResult {
	t.Helper()
	res, err := scenarios.CluBClustering(generate(t, p), p, policy).Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestDSTCGain is the miniature Table 4: a recurring single-transaction
// traversal workload must recluster very well (the paper reports gain 13.2
// on Texas; the shape — a clearly large gain — is asserted here).
func TestDSTCGain(t *testing.T) {
	res := run(t, smallParams(), dstc.NewCluBStyle())
	if res.Gain != res.Before/res.After {
		t.Fatalf("gain %v inconsistent with %v -> %v", res.Gain, res.Before, res.After)
	}
	if res.Gain < 2 {
		t.Fatalf("CluB gain = %.2f (%.1f -> %.1f I/Os), want >= 2",
			res.Gain, res.Before, res.After)
	}
	if res.ClusteringIOs == 0 {
		t.Fatal("reorganization charged no clustering overhead")
	}
	if res.Reloc.ObjectsMoved == 0 {
		t.Fatal("nothing moved")
	}
}

func TestNoPolicyNoGain(t *testing.T) {
	res := run(t, smallParams(), nil)
	// Same placement and same roots on both sides: identical I/Os.
	if res.Before != res.After {
		t.Fatalf("placement unchanged but I/Os moved: %v -> %v", res.Before, res.After)
	}
	if res.ClusteringIOs != 0 {
		t.Fatal("no policy but clustering I/Os charged")
	}
}

func TestNonePolicy(t *testing.T) {
	res := run(t, smallParams(), nil)
	if res.Before != res.After || res.Gain != 1 {
		t.Fatalf("None policy changed I/Os: %+v", res)
	}
}

func TestRunOnReusesDatabase(t *testing.T) {
	p := smallParams()
	db := generate(t, p)
	a, err := scenarios.CluBClustering(db, p, nil).Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := scenarios.CluBClustering(db, p, dstc.NewCluBStyle()).Run()
	if err != nil {
		t.Fatal(err)
	}
	// The same roots replay: the DSTC run must start from the same before
	// figure the measurement run saw.
	if a.Before != b.Before {
		t.Fatalf("before I/Os differ across protocol runs: %v vs %v", a.Before, b.Before)
	}
	if b.Gain <= 1 {
		t.Fatalf("gain = %v", b.Gain)
	}
}

func TestDefaultsApplied(t *testing.T) {
	p := smallParams()
	p.Roots = 0
	p.Repeats = 0
	db := generate(t, p)
	d := club.DefaultParams()
	if ops := len(club.Pass(db, p, nil).Ops); ops != d.Roots {
		t.Fatalf("pass has %d ops, want the default %d roots", ops, d.Roots)
	}
	if obs := len(scenarios.CluBClustering(db, p, nil).ObserveSeeds); obs != d.Repeats {
		t.Fatalf("%d observation passes, want the default %d repeats", obs, d.Repeats)
	}
}
