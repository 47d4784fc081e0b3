// Package ocb_test hosts the repository-level benchmark suite: one
// sub-benchmark per registered experiment (regenerating its table through
// internal/exp), plus micro-benchmarks for the substrates the results rest
// on.
//
// The experiment benches run the Quick geometry so `go test -bench=.`
// stays tractable; cmd/ocb-experiments (without -quick) regenerates the
// full-scale numbers.
package ocb_test

import (
	"sync/atomic"
	"testing"

	"ocb/internal/backend"
	_ "ocb/internal/backend/all"
	"ocb/internal/cluster"
	"ocb/internal/core"
	"ocb/internal/dstc"
	"ocb/internal/exp"
	"ocb/internal/lewis"
	"ocb/internal/oo1"
	"ocb/internal/store"
	"ocb/internal/workload"
)

// BenchmarkExperiments regenerates every exp.Experiments entry on the
// Quick geometry, one sub-benchmark each; the row count defeats dead-code
// elimination.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range exp.Experiments {
		b.Run(e.Name, func(b *testing.B) {
			rows := 0
			for i := 0; i < b.N; i++ {
				t, err := e.Run(exp.Config{Quick: true})
				if err != nil {
					b.Fatal(err)
				}
				rows += t.NumRows()
			}
			if rows == 0 {
				b.Fatal("no rows produced")
			}
		})
	}
}

// BenchmarkGeneration measures raw database generation across schema
// sizes (the quantity Figure 4 plots).
func BenchmarkGeneration(b *testing.B) {
	for _, cfg := range []struct {
		name   string
		nc, no int
	}{
		{"NC1/NO1000", 1, 1000},
		{"NC20/NO1000", 20, 1000},
		{"NC50/NO1000", 50, 1000},
		{"NC20/NO10000", 20, 10000},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			p := core.DefaultParams()
			p.NC = cfg.nc
			p.SupClass = cfg.nc
			p.NO = cfg.no
			p.SupRef = cfg.no
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p.Seed = int64(i + 1)
				if _, err := core.Generate(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTransaction measures one transaction of each OCB type on a
// resident database.
func BenchmarkTransaction(b *testing.B) {
	p := core.DefaultParams()
	p.NO = 5000
	p.SupRef = 5000
	p.BufferPages = 2048 // fully resident: measures CPU cost of navigation
	db, err := core.Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	for _, typ := range []core.TxType{
		core.SetAccess, core.SimpleTraversal, core.HierarchyTraversal, core.StochasticTraversal,
	} {
		typ := typ
		b.Run(typ.String(), func(b *testing.B) {
			src := lewis.New(42)
			ex := core.NewExecutor(db, nil, src)
			depth := map[core.TxType]int{
				core.SetAccess: p.SetDepth, core.SimpleTraversal: p.SimDepth,
				core.HierarchyTraversal: p.HieDepth, core.StochasticTraversal: p.StoDepth,
			}[typ]
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tx := core.Transaction{
					Type:    typ,
					Root:    backend.OID(src.IntRange(1, p.NO)),
					Depth:   depth,
					RefType: 1 + i%p.NRefT,
				}
				if _, err := ex.Exec(tx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOO1Traversal measures the canonical OO1 depth-7 traversal.
func BenchmarkOO1Traversal(b *testing.B) {
	p := oo1.DefaultParams()
	p.NumParts = 4000
	p.RefZone = 40
	p.BufferPages = 2048
	db, err := oo1.Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	src := lewis.New(p.Seed)
	stream := &workload.AccessStream{Store: db.Store}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// A fresh uniformly drawn root per run, as the suite's traversal op.
		root := db.ByID[src.IntRange(1, db.NumParts())]
		if _, err := db.TraverseFrom(stream, root, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReorganize measures the physical reorganization step for DSTC
// and the static baselines.
func BenchmarkReorganize(b *testing.B) {
	build := func() (*core.Database, error) {
		p := core.CluBParams()
		p.NO = 4000
		p.SupRef = 4000
		p.BufferPages = 64
		return core.Generate(p)
	}
	b.Run("dstc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			db, err := build()
			if err != nil {
				b.Fatal(err)
			}
			policy := dstc.New(dstc.Params{ObservationPeriod: 1 << 30, MaxUnitBytes: 1 << 16})
			r := core.NewRunner(db, policy)
			if _, err := r.RunPhase("observe", 60, 7); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, err := policy.Reorganize(db.Store); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			db, err := build()
			if err != nil {
				b.Fatal(err)
			}
			policy := &cluster.Sequential{Objects: db.AllOIDs}
			b.StartTimer()
			if _, err := policy.Reorganize(db.Store); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkStoreAccess measures the page-fault path (miss) and the
// resident path (hit) of the store.
func BenchmarkStoreAccess(b *testing.B) {
	s, err := store.Open(store.Config{PageSize: 4096, BufferPages: 8})
	if err != nil {
		b.Fatal(err)
	}
	var oids []store.OID
	for i := 0; i < 2000; i++ {
		oid, err := s.Create(100)
		if err != nil {
			b.Fatal(err)
		}
		oids = append(oids, oid)
	}
	if err := s.Commit(); err != nil {
		b.Fatal(err)
	}
	b.Run("hit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := s.Access(oids[0]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("miss", func(b *testing.B) {
		src := lewis.New(3)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			// Random far accesses against an 8-frame pool: ~always a miss.
			if err := s.Access(oids[src.Intn(len(oids))]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAccessVsBatchOfOne prices Backend.Access against an
// AccessBatch of one OID over the same warm objects: the number that
// decides whether Access stays in the Backend contract now that nothing
// outside the drivers calls it. flatmem is the dispatch-only floor;
// waldisk serves every fault from its warm object cache.
func BenchmarkAccessVsBatchOfOne(b *testing.B) {
	for _, name := range []string{"flatmem", "waldisk"} {
		st, err := backend.Open(name, backend.Config{})
		if err != nil {
			b.Fatal(err)
		}
		oids := make([]backend.OID, 1000)
		for i := range oids {
			if oids[i], err = st.Create(100); err != nil {
				b.Fatal(err)
			}
		}
		if err := st.Commit(); err != nil {
			b.Fatal(err)
		}
		if _, err := st.AccessBatch(oids); err != nil { // warm the cache
			b.Fatal(err)
		}
		b.Run(name+"/Access", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := st.Access(oids[i%len(oids)]); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/AccessBatch1", func(b *testing.B) {
			one := make([]backend.OID, 1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				one[0] = oids[i%len(oids)]
				if _, err := st.AccessBatch(one); err != nil {
					b.Fatal(err)
				}
			}
		})
		if err := backend.Shutdown(st); err != nil {
			b.Fatal(err)
		}
	}
}

// parallelStore builds a store populated for the contention benchmarks.
func parallelStore(b *testing.B) (*store.Store, []store.OID) {
	b.Helper()
	s, err := store.Open(store.Config{PageSize: 4096, BufferPages: 4096})
	if err != nil {
		b.Fatal(err)
	}
	var oids []store.OID
	for i := 0; i < 10000; i++ {
		oid, err := s.Create(100)
		if err != nil {
			b.Fatal(err)
		}
		oids = append(oids, oid)
	}
	if err := s.Commit(); err != nil {
		b.Fatal(err)
	}
	return s, oids
}

// BenchmarkStoreAccessParallel hammers Store.Access from GOMAXPROCS
// goroutines: every access takes the object-table lock and the one
// buffer pool's lock.
func BenchmarkStoreAccessParallel(b *testing.B) {
	s, oids := parallelStore(b)
	var worker atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// Distinct per-worker seeds: identical streams would touch the
		// same objects in lockstep and overstate contention.
		src := lewis.New(1000 + worker.Add(1))
		for pb.Next() {
			if err := s.Access(oids[src.Intn(len(oids))]); err != nil {
				// Fatal must not run on a RunParallel worker.
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkStoreUpdateParallel is the dirty-path analogue: Access plus a
// slot-directory dirty mark under the pool lock.
func BenchmarkStoreUpdateParallel(b *testing.B) {
	s, oids := parallelStore(b)
	var worker atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// Distinct per-worker seeds, as in the Access benchmark.
		src := lewis.New(2000 + worker.Add(1))
		for pb.Next() {
			if err := s.Update(oids[src.Intn(len(oids))]); err != nil {
				// Fatal must not run on a RunParallel worker.
				b.Error(err)
				return
			}
		}
	})
}

// residentDB builds the fully resident database the fast-path benchmarks
// run on: with the whole working set cached, time/op measures the
// harness's own CPU cost per transaction — the overhead OCB's design says
// must stay negligible.
func residentDB(b *testing.B, clientN int) *core.Database {
	b.Helper()
	p := core.DefaultParams()
	p.NO = 5000
	p.SupRef = 5000
	p.BufferPages = 4096
	p.ClientN = clientN
	db, err := core.Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	return db
}

// warmPhaseTx is the per-iteration transaction count of the warm-phase
// benchmarks; tx/s in their output is derived from it.
const warmPhaseTx = 200

// BenchmarkWarmTraversalPhase is the headline fast-path benchmark: one
// warm phase of the default four-traversal mix per iteration, on a
// resident database, replaying the identical transaction stream every
// time. BENCH_baseline.json records its before/after numbers.
func BenchmarkWarmTraversalPhase(b *testing.B) {
	db := residentDB(b, 1)
	r := core.NewRunner(db, nil)
	if _, err := r.RunPhase("prewarm", 100, 1); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := r.RunPhase("warm", warmPhaseTx, 2)
		if err != nil {
			b.Fatal(err)
		}
		if m.Executed != warmPhaseTx {
			b.Fatalf("phase ran %d transactions, want %d", m.Executed, warmPhaseTx)
		}
	}
	b.ReportMetric(float64(b.N)*warmPhaseTx/b.Elapsed().Seconds(), "tx/s")
}

// BenchmarkWarmTraversalParallel is the RunParallel variant: GOMAXPROCS
// executors share one resident database, each drawing its own transaction
// stream.
func BenchmarkWarmTraversalParallel(b *testing.B) {
	db := residentDB(b, 8)
	p := db.P
	// Prewarm the cache so every worker measures the resident path.
	r := core.NewRunner(db, nil)
	if _, err := r.RunPhase("prewarm", 100, 1); err != nil {
		b.Fatal(err)
	}
	var worker atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// Distinct per-worker seeds, as in the store benchmarks.
		src := lewis.New(3000 + worker.Add(1))
		ex := core.NewExecutor(db, nil, src)
		for pb.Next() {
			tx := core.SampleTransaction(p, src)
			if _, err := ex.Exec(tx); err != nil {
				// Fatal must not run on a RunParallel worker.
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkScanTransaction measures HyperModel's Sequential Scan over the
// live set — the generic-workload operation that used to rebuild the full
// live-OID slice twice per transaction.
func BenchmarkScanTransaction(b *testing.B) {
	db := residentDB(b, 1)
	src := lewis.New(7)
	ex := core.NewExecutor(db, nil, src)
	if _, err := ex.Exec(core.Transaction{Type: core.ScanOp}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := ex.Exec(core.Transaction{Type: core.ScanOp})
		if err != nil {
			b.Fatal(err)
		}
		if n != db.NumLive() {
			b.Fatalf("scan touched %d objects, live set has %d", n, db.NumLive())
		}
	}
}
