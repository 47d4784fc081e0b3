package core

import (
	"testing"
	"time"

	"ocb/internal/backend"
	"ocb/internal/workload"
)

// These tests exercise the multi-client protocol under the race detector
// (the CI race shard runs this package with -race) and pin down which
// merged results are schedule-independent: transaction counts,
// per-type counts, per-transaction object counts and the phase's exact
// disk-counter delta must be identical across repeated runs with the same
// seed, no matter how the scheduler interleaves the clients.

// raceParams is a small database on an 8-shard object table under a
// buffer big enough that the pool never evicts: every page faults at most once per phase, which is
// what makes the phase's disk delta independent of client interleaving.
func raceParams(clients int) Params {
	p := DefaultParams()
	p.NO = 400
	p.SupRef = 400
	p.BufferPages = 2048
	p.BackendOptions = map[string]string{"shards": "8"}
	p.ClientN = clients
	return p
}

// runOnce replays one phase from a cold cache with zeroed counters.
func runOnce(t *testing.T, db *Database, txPerClient int, seed int64) *workload.Result {
	t.Helper()
	db.Store.DropCache()
	db.Store.ResetStats()
	m, err := NewRunner(db, nil).RunPhase("race", txPerClient, seed)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestRunPhaseConcurrentScheduleIndependent(t *testing.T) {
	for _, clients := range []int{2, 8} {
		p := raceParams(clients)
		db, err := Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		const txPerClient = 40
		m1 := runOnce(t, db, txPerClient, 777)
		accessed1 := db.Store.Stats().ObjectsAccessed
		m2 := runOnce(t, db, txPerClient, 777)
		accessed2 := db.Store.Stats().ObjectsAccessed

		if m1.Executed != int64(clients*txPerClient) {
			t.Fatalf("clients=%d: %d transactions, want %d", clients, m1.Executed, clients*txPerClient)
		}
		if m1.Executed != m2.Executed {
			t.Errorf("clients=%d: transaction counts differ: %d vs %d", clients, m1.Executed, m2.Executed)
		}
		for tt := range m1.PerOp {
			if m1.PerOp[tt].Count != m2.PerOp[tt].Count {
				t.Errorf("clients=%d: type %v count differs: %d vs %d",
					clients, TxType(tt), m1.PerOp[tt].Count, m2.PerOp[tt].Count)
			}
		}
		if m1.Total.Count != m2.Total.Count {
			t.Errorf("clients=%d: global count differs: %d vs %d", clients, m1.Total.Count, m2.Total.Count)
		}
		// Objects accessed per transaction are determined by the traversal
		// streams, so the merged welford is bitwise reproducible.
		if m1.Total.Objects.Mean() != m2.Total.Objects.Mean() ||
			m1.Total.Objects.N() != m2.Total.Objects.N() {
			t.Errorf("clients=%d: objects-per-tx welford differs: %v/%d vs %v/%d", clients,
				m1.Total.Objects.Mean(), m1.Total.Objects.N(),
				m2.Total.Objects.Mean(), m2.Total.Objects.N())
		}
		if accessed1 != accessed2 {
			t.Errorf("clients=%d: store object-access totals differ: %d vs %d", clients, accessed1, accessed2)
		}
		// The disk delta is the exact phase total: with no evictions every
		// distinct page faults exactly once, so the counter-wise delta is
		// schedule-independent.
		if m1.DiskDelta != m2.DiskDelta {
			t.Errorf("clients=%d: disk deltas differ: %+v vs %+v", clients, m1.DiskDelta, m2.DiskDelta)
		}
		if m1.DiskDelta.TotalWrites() != 0 {
			t.Errorf("clients=%d: read-only phase wrote %d pages", clients, m1.DiskDelta.TotalWrites())
		}
		if pool := db.Store.Stats().Pool; pool.Evictions != 0 {
			t.Errorf("clients=%d: geometry evicted %d pages; the exactness argument needs none", clients, pool.Evictions)
		}
	}
}

// TestRunPhaseConcurrentMatchesSerial pins the concurrency refactor to the
// protocol semantics: the same seed produces the same per-client streams
// whether the clients run concurrently or the phase runs with one client
// per seed offset, so the merged per-type counts must match.
func TestRunPhaseConcurrentMatchesSerial(t *testing.T) {
	const clients, txPerClient = 4, 30
	db, err := Generate(raceParams(clients))
	if err != nil {
		t.Fatal(err)
	}
	conc := runOnce(t, db, txPerClient, 555)

	serial := &workload.Result{PerOp: make([]workload.OpMetrics, NumTxTypes)}
	sp := raceParams(1)
	sdb, err := Generate(sp)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < clients; c++ {
		sdb.Store.DropCache()
		// Client c of a concurrent phase draws from seed + c*104729.
		m, err := NewRunner(sdb, nil).RunPhase("serial", txPerClient, 555+int64(c)*104729)
		if err != nil {
			t.Fatal(err)
		}
		serial.Executed += m.Executed
		for tt := range serial.PerOp {
			serial.PerOp[tt].Count += m.PerOp[tt].Count
		}
	}
	if conc.Executed != serial.Executed {
		t.Fatalf("concurrent %d transactions vs serial %d", conc.Executed, serial.Executed)
	}
	for tt := range conc.PerOp {
		if conc.PerOp[tt].Count != serial.PerOp[tt].Count {
			t.Errorf("type %v: concurrent count %d vs serial %d",
				TxType(tt), conc.PerOp[tt].Count, serial.PerOp[tt].Count)
		}
	}
}

// TestRunPhaseConcurrentGenericWorkload runs the Section 5 mutating
// workload (insertions, deletions, updates, scans) with concurrent
// clients: the database graph lock serializes structural mutations, and
// the database must come out of the phase internally consistent.
func TestRunPhaseConcurrentGenericWorkload(t *testing.T) {
	p := GenericParams()
	p.NO = 300
	p.SupRef = 300
	p.BufferPages = 1024
	p.BackendOptions = map[string]string{"shards": "8"}
	p.ClientN = 4
	db, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRunner(db, nil).RunPhase("generic", 25, 909); err != nil {
		t.Fatal(err)
	}
	if err := CheckDatabase(db); err != nil {
		t.Fatalf("database inconsistent after concurrent mutating phase: %v", err)
	}
	if err := backend.CheckIntegrity(db.Store); err != nil {
		t.Fatalf("store inconsistent after concurrent mutating phase: %v", err)
	}
}

// TestSweepPointMatchesRunPhase pins the "same streams at every point"
// property the clients experiment relies on: a workload.Sweep point at one
// client over a PhaseSpec — here visited after a 4-client point, on a
// database generated for 4 clients — reports exactly what RunPhase
// reports on an identically generated single-client database. A point's
// streams depend on its own client count and the seed, never on the
// database's CLIENTN or the point's position in the grid.
func TestSweepPointMatchesRunPhase(t *testing.T) {
	const txPerClient, seed = 40, 4242
	db, err := Generate(raceParams(4))
	if err != nil {
		t.Fatal(err)
	}
	spec := NewRunner(db, nil).PhaseSpec("sweep", txPerClient, seed)
	spec.ColdStart = true
	points, err := workload.Sweep(spec, workload.SweepOptions{Clients: []int{4, 1}})
	if err != nil {
		t.Fatal(err)
	}
	got := points[1].Result

	sdb, err := Generate(raceParams(1))
	if err != nil {
		t.Fatal(err)
	}
	want := runOnce(t, sdb, txPerClient, seed)

	if got.Clients != 1 || got.Executed != want.Executed {
		t.Fatalf("sweep point: %d clients, %d transactions; RunPhase executed %d",
			got.Clients, got.Executed, want.Executed)
	}
	if got.Total.ObjectsTotal != want.Total.ObjectsTotal {
		t.Errorf("objects accessed: sweep point %d, RunPhase %d", got.Total.ObjectsTotal, want.Total.ObjectsTotal)
	}
	if got.DiskDelta != want.DiskDelta {
		t.Errorf("disk delta: sweep point %+v, RunPhase %+v", got.DiskDelta, want.DiskDelta)
	}
}

// TestRatePacing checks the open-loop arrival schedule on an OCB phase: n
// transactions at a rate target of one per T take at least (n-1)*T of
// wall clock.
func TestRatePacing(t *testing.T) {
	db, err := Generate(raceParams(1))
	if err != nil {
		t.Fatal(err)
	}
	const n = 10
	const gap = 2 * time.Millisecond
	spec := NewRunner(db, nil).PhaseSpec("rate", n, 11)
	spec.Rate = float64(time.Second / gap)
	m, err := workload.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if min := (n - 1) * gap; m.Duration < min {
		t.Fatalf("rate-paced phase of %d tx finished in %v, schedule floor is %v", n, m.Duration, min)
	}
}
