package core

import (
	"testing"

	"ocb/internal/cluster"
	"ocb/internal/dstc"
	"ocb/internal/lewis"
	"ocb/internal/workload"
)

// runProtocol runs the §3.3 cold and warm phases as scenarios.OCB
// sequences them: ColdN transactions on Seed+1, then HotN on Seed+2.
func runProtocol(t *testing.T, r *Runner) (cold, warm *workload.Result) {
	t.Helper()
	cold, err := r.RunPhase("cold", r.DB.P.ColdN, r.DB.P.Seed+1)
	if err != nil {
		t.Fatal(err)
	}
	warm, err = r.RunPhase("warm", r.DB.P.HotN, r.DB.P.Seed+2)
	if err != nil {
		t.Fatal(err)
	}
	return cold, warm
}

func TestRunnerFullProtocol(t *testing.T) {
	p := smallParams()
	p.ColdN = 30
	p.HotN = 60
	db := MustGenerate(p)
	cold, warm := runProtocol(t, NewRunner(db, nil))
	if cold.Executed != int64(p.ColdN) {
		t.Fatalf("cold transactions = %d, want %d", cold.Executed, p.ColdN)
	}
	if warm.Executed != int64(p.HotN) {
		t.Fatalf("warm transactions = %d, want %d", warm.Executed, p.HotN)
	}
	// Per-type counts must sum to the phase total.
	var sum int64
	for _, tm := range warm.PerOp {
		sum += tm.Count
	}
	if sum != warm.Executed {
		t.Fatalf("per-type counts sum to %d, want %d", sum, warm.Executed)
	}
	if warm.Total.Objects.Mean() <= 1 {
		t.Fatalf("mean objects per tx = %v", warm.Total.Objects.Mean())
	}
	if warm.Duration <= 0 {
		t.Fatal("phase duration missing")
	}
}

func TestRunPhaseDeterministicStreams(t *testing.T) {
	p := smallParams()
	db := MustGenerate(p)
	r := NewRunner(db, nil)
	a, err := r.RunPhase("x", 50, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.RunPhase("y", 50, 42)
	if err != nil {
		t.Fatal(err)
	}
	for typ := range a.PerOp {
		if a.PerOp[typ].Count != b.PerOp[typ].Count {
			t.Fatalf("type %v count differs: %d vs %d",
				TxType(typ), a.PerOp[typ].Count, b.PerOp[typ].Count)
		}
		if a.PerOp[typ].Objects.Sum() != b.PerOp[typ].Objects.Sum() {
			t.Fatalf("type %v objects differ", TxType(typ))
		}
	}
}

func TestTypeMixFollowsProbabilities(t *testing.T) {
	p := smallParams()
	p.PSet, p.PSimple, p.PHier, p.PStoch = 0.5, 0.5, 0, 0
	db := MustGenerate(p)
	r := NewRunner(db, nil)
	m, err := r.RunPhase("mix", 400, 7)
	if err != nil {
		t.Fatal(err)
	}
	if m.PerOp[HierarchyTraversal].Count != 0 || m.PerOp[StochasticTraversal].Count != 0 {
		t.Fatal("zero-probability types executed")
	}
	frac := float64(m.PerOp[SetAccess].Count) / float64(m.Executed)
	if frac < 0.4 || frac > 0.6 {
		t.Fatalf("set fraction = %v, want ~0.5", frac)
	}
}

func TestSingleTypeWorkload(t *testing.T) {
	p := smallParams()
	p.PSet, p.PSimple, p.PHier, p.PStoch = 0, 1, 0, 0
	db := MustGenerate(p)
	r := NewRunner(db, nil)
	m, err := r.RunPhase("simple-only", 50, 3)
	if err != nil {
		t.Fatal(err)
	}
	if m.PerOp[SimpleTraversal].Count != 50 {
		t.Fatalf("simple count = %d", m.PerOp[SimpleTraversal].Count)
	}
}

func TestMultiClientRun(t *testing.T) {
	p := smallParams()
	p.ClientN = 4
	p.ColdN = 10
	p.HotN = 20
	db := MustGenerate(p)
	cold, warm := runProtocol(t, NewRunner(db, dstc.New(dstc.Params{ObservationPeriod: 5})))
	if cold.Executed != int64(4*p.ColdN) {
		t.Fatalf("cold transactions = %d, want %d", cold.Executed, 4*p.ColdN)
	}
	if warm.Executed != int64(4*p.HotN) {
		t.Fatalf("warm transactions = %d, want %d", warm.Executed, 4*p.HotN)
	}
}

func TestMeanIOsPerTxUsesGlobalCounters(t *testing.T) {
	p := smallParams()
	p.BufferPages = 4 // pressure
	db := MustGenerate(p)
	db.Store.DropCache()
	r := NewRunner(db, nil)
	m, err := r.RunPhase("pressure", 30, 5)
	if err != nil {
		t.Fatal(err)
	}
	if m.MeanIOsPerOp() <= 0 {
		t.Fatal("no I/Os measured under memory pressure")
	}
	// Global mean from disk counters must agree with the per-tx attribution
	// in the single-client case (up to accumulation rounding).
	got, want := m.MeanIOsPerOp(), m.Total.IOs.Mean()
	if diff := got - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("global mean %v != per-tx mean %v (single client)", got, want)
	}
	var empty workload.Result
	if empty.MeanIOsPerOp() != 0 {
		t.Fatal("empty phase mean not 0")
	}
}

func TestSampleTransactionShape(t *testing.T) {
	p := DefaultParams()
	src := lewis.New(123)
	counts := make(map[TxType]int)
	for i := 0; i < 4000; i++ {
		tx := SampleTransaction(p, src)
		counts[tx.Type]++
		if tx.Root < 1 || int(tx.Root) > p.NO {
			t.Fatalf("root %d out of range", tx.Root)
		}
		switch tx.Type {
		case SetAccess:
			if tx.Depth != p.SetDepth {
				t.Fatalf("set depth = %d", tx.Depth)
			}
		case SimpleTraversal:
			if tx.Depth != p.SimDepth {
				t.Fatalf("simple depth = %d", tx.Depth)
			}
		case HierarchyTraversal:
			if tx.Depth != p.HieDepth {
				t.Fatalf("hierarchy depth = %d", tx.Depth)
			}
			if tx.RefType < 1 || tx.RefType > p.NRefT {
				t.Fatalf("hierarchy ref type = %d", tx.RefType)
			}
		case StochasticTraversal:
			if tx.Depth != p.StoDepth {
				t.Fatalf("stochastic depth = %d", tx.Depth)
			}
		}
		if tx.Reverse {
			t.Fatal("reverse transaction with PReverse = 0")
		}
	}
	for _, typ := range []TxType{SetAccess, SimpleTraversal, HierarchyTraversal, StochasticTraversal} {
		frac := float64(counts[typ]) / 4000
		if frac < 0.2 || frac > 0.3 {
			t.Fatalf("type %v fraction = %v, want ~0.25", typ, frac)
		}
	}
	// The generic transaction set has probability 0 under Table 2 defaults.
	for _, typ := range []TxType{UpdateOp, InsertOp, DeleteOp, ScanOp, RangeOp} {
		if counts[typ] != 0 {
			t.Fatalf("type %v sampled under default probabilities", typ)
		}
	}
}

func TestSampleTransactionReverse(t *testing.T) {
	p := DefaultParams()
	p.PReverse = 1
	src := lewis.New(5)
	for i := 0; i < 20; i++ {
		if !SampleTransaction(p, src).Reverse {
			t.Fatal("PReverse=1 produced forward transaction")
		}
	}
}

// TestDSTCGainEndToEnd is the miniature Table 5 mechanic: observe a
// workload, reorganize with DSTC, replay the identical workload, and
// require fewer I/Os. This is the core claim of the whole benchmark.
func TestDSTCGainEndToEnd(t *testing.T) {
	p := smallParams()
	p.NO = 2000
	p.SupRef = 2000
	p.BufferPages = 16
	p.PSet, p.PSimple, p.PHier, p.PStoch = 0, 1, 0, 0
	db := MustGenerate(p)

	policy := dstc.New(dstc.Params{ObservationPeriod: 50, Tfa: 1, Tfc: 1})
	r := NewRunner(db, policy)

	const seed = 99
	db.Store.DropCache()
	before, err := r.RunPhase("before", 200, seed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.Reorganize(policy, db.Store); err != nil {
		t.Fatal(err)
	}
	db.Store.DropCache()
	after, err := r.RunPhase("after", 200, seed)
	if err != nil {
		t.Fatal(err)
	}
	gain := before.MeanIOsPerOp() / after.MeanIOsPerOp()
	if gain <= 1 {
		t.Fatalf("DSTC did not help: %.2f -> %.2f I/Os per tx (gain %.2f)",
			before.MeanIOsPerOp(), after.MeanIOsPerOp(), gain)
	}
	// Clustering I/O overhead must have been charged to its own class.
	if db.Store.Stats().Disk.ClusteringIOs() == 0 {
		t.Fatal("reorganization charged no clustering I/O")
	}
}

func TestRunnerWithoutPolicy(t *testing.T) {
	p := smallParams()
	db := MustGenerate(p)
	r := NewRunner(db, nil)
	if _, err := cluster.Reorganize(nil, db.Store); err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunPhase("free", 10, 1); err != nil {
		t.Fatal(err)
	}
}
