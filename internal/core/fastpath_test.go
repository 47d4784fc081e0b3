package core

import (
	"fmt"
	"testing"
	"time"

	"ocb/internal/backend"
	"ocb/internal/lewis"
	"ocb/internal/workload"
)

// TestTraversalFastPathAllocFree is the allocation regression gate of the
// fast-path rewrite: once an executor's scratch is warm and the database
// resident, no transaction type may allocate — per visited object or per
// transaction — so the harness's own overhead stays out of the measured
// response times. That includes the access stream's queue: the cases
// longer than scanBatch flush it mid-transaction and refill it. Every call
// now dispatches through the backend.Backend interface, so the gate runs
// against each registered backend: interface dispatch on the hot
// Access/AccessBatch path must not reintroduce per-transaction allocations
// on any driver.
func TestTraversalFastPathAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under the race detector; allocation counts are not meaningful")
	}
	// Local drivers only: the remote driver's round trips allocate in the
	// transport (and need a served endpoint); its hot-path economy is the
	// pooled connection, not allocation freedom.
	for _, be := range backend.ListLocal() {
		t.Run(be, func(t *testing.T) {
			p := chainParams(3, 2000)
			p.Backend = be
			p.BufferPages = 2048 // resident: no eviction churn in the pool
			db := MustGenerate(p)
			// Durable backends hold files (ephemeral waldisk a scratch
			// directory); release them when the subtest ends.
			t.Cleanup(func() { _ = backend.Shutdown(db.Store) })
			ex := NewExecutor(db, nil, lewis.New(1))
			// Make the whole database resident before measuring: backends
			// with a read cache (waldisk) admit an object on first touch,
			// and a randomized traversal keeps touching objects for the
			// first time long after its own warmup run. One full scan warms
			// every object, so the measured runs see the steady state.
			if _, err := ex.Exec(Transaction{Type: ScanOp}); err != nil {
				t.Fatal(err)
			}
			for _, tc := range []struct {
				name string
				tx   Transaction
			}{
				{"set", Transaction{Type: SetAccess, Root: 1, Depth: 3}},
				{"simple", Transaction{Type: SimpleTraversal, Root: 1, Depth: 3}},
				{"simple/7 chunks", Transaction{Type: SimpleTraversal, Root: 1, Depth: 7}},
				{"hierarchy", Transaction{Type: HierarchyTraversal, Root: 1, Depth: 5, RefType: 1}},
				{"stochastic", Transaction{Type: StochasticTraversal, Root: 1, Depth: 50}},
				{"stochastic/2 chunks", Transaction{Type: StochasticTraversal, Root: 1, Depth: 600}},
				{"scan", Transaction{Type: ScanOp}},
				{"range", Transaction{Type: RangeOp, Root: 1}},
			} {
				t.Run(tc.name, func(t *testing.T) {
					if _, err := ex.Exec(tc.tx); err != nil {
						t.Fatal(err)
					}
					avg := testing.AllocsPerRun(50, func() {
						if _, err := ex.Exec(tc.tx); err != nil {
							t.Fatal(err)
						}
					})
					if avg != 0 {
						t.Fatalf("%s allocates %.1f per transaction on %s, want 0", tc.name, avg, be)
					}
				})
			}
		})
	}
}

// TestSetAccessReverseAllocFree covers the BackRef discovery path of the
// batched breadth-first walk.
func TestSetAccessReverseAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under the race detector; allocation counts are not meaningful")
	}
	p := chainParams(3, 2000)
	p.BufferPages = 2048
	db := MustGenerate(p)
	ex := NewExecutor(db, nil, lewis.New(1))
	tx := Transaction{Type: SetAccess, Root: 1, Depth: 3, Reverse: true}
	if _, err := ex.Exec(tx); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(50, func() {
		if _, err := ex.Exec(tx); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("reverse set access allocates %.1f per transaction, want 0", avg)
	}
}

// TestRunPhaseEngineAllocFree guards the unified workload engine's
// measured loop: a whole phase through Runner.RunPhase (spec build,
// client fan-out, per-op timing, metric recording) must cost only its
// fixed per-phase setup, not per-transaction allocations. The marginal
// cost of doubling the transaction count is pinned well below one
// allocation per transaction (the residue is amortized quantile-reservoir
// growth).
func TestRunPhaseEngineAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under the race detector; allocation counts are not meaningful")
	}
	p := chainParams(3, 2000)
	p.BufferPages = 2048 // resident: no eviction churn in the pool
	db := MustGenerate(p)
	r := NewRunner(db, nil)
	if _, err := r.RunPhase("warm", 200, 7); err != nil {
		t.Fatal(err)
	}
	// The per-op hook costs the loop one nil check unset, and nothing but
	// its own body when set.
	var ios uint64
	for _, hook := range []struct {
		name string
		fn   func(op, objects int, ios uint64, d time.Duration)
	}{
		{"no hook", nil},
		{"counting hook", func(_, _ int, n uint64, _ time.Duration) { ios += n }},
	} {
		measure := func(n int) float64 {
			return testing.AllocsPerRun(5, func() {
				spec := r.PhaseSpec("alloc", n, 7)
				spec.OnOp = hook.fn
				if _, err := workload.Run(spec); err != nil {
					t.Fatal(err)
				}
			})
		}
		base, double := measure(200), measure(400)
		if perTx := (double - base) / 200; perTx > 0.5 {
			t.Fatalf("%s: engine measured loop allocates %.3f per transaction, want ~0 (phase setup only: %0.f/%0.f allocs)",
				hook.name, perTx, base, double)
		}
		if base > 200 {
			t.Fatalf("%s: per-phase setup costs %.0f allocs for 200 tx, want bounded setup", hook.name, base)
		}
	}
}

// phaseGold pins one phase's exact CLIENTN=1 measurements (captured from
// the pre-rewrite implementation): transaction totals, per-type counts and
// mean accessed objects, and the phase's disk-counter delta. Response
// times are wall clock and therefore excluded. Floats are compared via
// %.10g, which pins all digits the Welford accumulator reproduces
// deterministically.
type phaseGold struct {
	tx            int64
	reads, writes uint64
	objMean       string
	perType       map[TxType]typeGold
}

type typeGold struct {
	count   int64
	objMean string
	ioMean  string
}

func checkPhaseGold(t *testing.T, tag string, m *workload.Result, g phaseGold) {
	t.Helper()
	if m.Executed != g.tx {
		t.Errorf("%s: transactions = %d, want %d", tag, m.Executed, g.tx)
	}
	if r := m.DiskDelta.Reads[0]; r != g.reads {
		t.Errorf("%s: transaction reads = %d, want %d", tag, r, g.reads)
	}
	if w := m.DiskDelta.Writes[0]; w != g.writes {
		t.Errorf("%s: transaction writes = %d, want %d", tag, w, g.writes)
	}
	if got := fmt.Sprintf("%.10g", m.Total.Objects.Mean()); got != g.objMean {
		t.Errorf("%s: objects mean = %s, want %s", tag, got, g.objMean)
	}
	for typ, want := range g.perType {
		tm := &m.PerOp[typ]
		if tm.Count != want.count {
			t.Errorf("%s/%s: count = %d, want %d", tag, typ, tm.Count, want.count)
		}
		if got := fmt.Sprintf("%.10g", tm.Objects.Mean()); got != want.objMean {
			t.Errorf("%s/%s: objects mean = %s, want %s", tag, typ, got, want.objMean)
		}
		if got := fmt.Sprintf("%.10g", tm.IOs.Mean()); got != want.ioMean {
			t.Errorf("%s/%s: I/O mean = %s, want %s", tag, typ, got, want.ioMean)
		}
	}
	for typ := TxType(0); typ < NumTxTypes; typ++ {
		if _, pinned := g.perType[typ]; !pinned && m.PerOp[typ].Count != 0 {
			t.Errorf("%s/%s: unexpected transactions (%d)", tag, typ, m.PerOp[typ].Count)
		}
	}
}

// TestPhaseMetricsGoldenCLIENTN1 replays two deterministic single-client
// protocols — the clustering-oriented mix and the Section 5 generic mix —
// and asserts the phase metrics are bit-identical to the values the
// pre-rewrite executor produced on the same seeds. This is the contract of
// the fast-path overhaul: faster, but measuring exactly the same workload.
func TestPhaseMetricsGoldenCLIENTN1(t *testing.T) {
	if testing.Short() {
		t.Skip("golden protocol replay skipped in -short mode")
	}

	p := DefaultParams()
	p.NO = 2000
	p.SupRef = 2000
	p.ColdN = 200
	p.HotN = 600
	p.BufferPages = 64
	p.Seed = 77
	db := MustGenerate(p)
	cold, warm := runProtocol(t, NewRunner(db, nil))
	checkPhaseGold(t, "clustering/cold", cold, phaseGold{
		tx: 200, reads: 57960, writes: 0, objMean: "360.045",
		perType: map[TxType]typeGold{
			SetAccess:           {53, "572.0188679", "474.2264151"},
			SimpleTraversal:     {48, "699.6458333", "553.6666667"},
			HierarchyTraversal:  {51, "111", "85.17647059"},
			StochasticTraversal: {48, "51", "39.70833333"},
		},
	})
	checkPhaseGold(t, "clustering/warm", warm, phaseGold{
		tx: 600, reads: 166416, writes: 0, objMean: "345.3166667",
		perType: map[TxType]typeGold{
			SetAccess:           {132, "558.6060606", "463.4848485"},
			SimpleTraversal:     {153, "710.7581699", "563.0915033"},
			HierarchyTraversal:  {150, "108.62", "83.02666667"},
			StochasticTraversal: {165, "51", "40.17575758"},
		},
	})

	g := GenericParams()
	g.NO = 1500
	g.SupRef = 1500
	g.ColdN = 150
	g.HotN = 400
	g.BufferPages = 64
	g.Seed = 101
	gdb := MustGenerate(g)
	gcold, gwarm := runProtocol(t, NewRunner(gdb, nil))
	checkPhaseGold(t, "generic/cold", gcold, phaseGold{
		tx: 150, reads: 25809, writes: 97, objMean: "258.8733333",
		perType: map[TxType]typeGold{
			SetAccess:           {16, "590.4375", "465.0625"},
			SimpleTraversal:     {26, "772.8461538", "582.4230769"},
			HierarchyTraversal:  {29, "68.62068966", "47.44827586"},
			StochasticTraversal: {17, "51", "39.47058824"},
			UpdateOp:            {26, "1", "1.769230769"},
			InsertOp:            {14, "10.35714286", "0.2142857143"},
			DeleteOp:            {6, "11.66666667", "20"},
			ScanOp:              {4, "1503", "269.75"},
			RangeOp:             {12, "15", "2.25"},
		},
	})
	checkPhaseGold(t, "generic/warm", gwarm, phaseGold{
		tx: 400, reads: 70948, writes: 238, objMean: "256.0875",
		perType: map[TxType]typeGold{
			SetAccess:           {53, "554.2264151", "436.2641509"},
			SimpleTraversal:     {71, "774.8169014", "577.1971831"},
			HierarchyTraversal:  {59, "56.25423729", "40.3559322"},
			StochasticTraversal: {62, "51", "36.77419355"},
			UpdateOp:            {72, "1", "1.708333333"},
			InsertOp:            {29, "9.793103448", "0.275862069"},
			DeleteOp:            {16, "10.125", "17.1875"},
			ScanOp:              {7, "1512.571429", "275.7142857"},
			RangeOp:             {31, "14.90322581", "2.774193548"},
		},
	})
	if err := CheckDatabase(gdb); err != nil {
		t.Fatalf("post-churn invariants: %v", err)
	}
}

// TestLiveSnapshotMaintenance exercises the cached ascending live-OID
// snapshot across insertions and deletions.
func TestLiveSnapshotMaintenance(t *testing.T) {
	p := chainParams(2, 200)
	db := MustGenerate(p)
	src := lewis.New(9)

	snap := db.LiveOIDs()
	if len(snap) != 200 {
		t.Fatalf("initial snapshot has %d entries", len(snap))
	}
	if &snap[0] != &db.LiveOIDs()[0] {
		t.Fatal("repeated LiveOIDs calls rebuild instead of sharing the snapshot")
	}

	// Insertion extends the snapshot in place (ascending OIDs).
	added, err := db.InsertObject(src)
	if err != nil {
		t.Fatal(err)
	}
	snap = db.LiveOIDs()
	if snap[len(snap)-1] != added {
		t.Fatalf("snapshot tail = %d, want inserted %d", snap[len(snap)-1], added)
	}

	// Deletion invalidates; the next call rebuilds without the victim.
	if err := db.DeleteObject(5); err != nil {
		t.Fatal(err)
	}
	snap = db.LiveOIDs()
	if len(snap) != 200 {
		t.Fatalf("post-delete snapshot has %d entries, want 200", len(snap))
	}
	for i, oid := range snap {
		if oid == 5 {
			t.Fatal("deleted OID still in snapshot")
		}
		if i > 0 && snap[i-1] >= oid {
			t.Fatalf("snapshot out of order at %d", i)
		}
	}

	// ResolveLive rides the snapshot: dead OID resolves upward, the top
	// wraps to the first live OID.
	if got, ok := db.ResolveLive(5); !ok || got != 6 {
		t.Fatalf("ResolveLive(5) = %d, %v; want 6", got, ok)
	}
	if got, ok := db.ResolveLive(added + 1); !ok || got != snap[0] {
		t.Fatalf("ResolveLive(past top) = %d, %v; want wrap to %d", got, ok, snap[0])
	}
	if err := CheckDatabase(db); err != nil {
		t.Fatal(err)
	}
}
