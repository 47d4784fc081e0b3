package exp

import (
	"fmt"
	"net"
	"sync"
	"time"

	"ocb/internal/backend"
	"ocb/internal/core"
	"ocb/internal/dstc"
	"ocb/internal/lewis"
	"ocb/internal/report"
	"ocb/internal/scenarios"
	"ocb/internal/wire"
	"ocb/internal/workload"
)

// oo1Signature runs the OO1-shaped traversal — a depth-7 simple traversal
// from the first class-1 root (all MAXNREF=3 references live) — and
// returns the objects visited. It is the backend-invariant signature both
// genericity experiments pin (3280 parts on the Table 3 database).
func oo1Signature(p core.Params, db *core.Database) (int, error) {
	var root backend.OID
	for i := 1; i <= p.NO; i++ {
		if cl, _ := db.ClassOf(backend.OID(i)); cl == 1 {
			root = backend.OID(i)
			break
		}
	}
	return core.NewExecutor(db, nil, nil).Exec(core.Transaction{Type: core.SimpleTraversal, Root: root, Depth: 7})
}

// Genericity is the cross-backend comparison behind the paper's headline
// claim: the same parameterized workload (Table 3, the CluB/OO1
// impersonation) aimed at every registered backend driver, one row per
// backend, same seed everywhere. The visited-object signature must be
// identical across rows — the workload is defined over the object graph,
// not the store — while the I/O profile differs per backend (the flat
// in-memory backend charges zero I/Os, the control that isolates
// clustering gains from raw I/O cost). Backends without physical
// relocation report the clustering column as skipped rather than failing.
//
// Exposed as the `compare` subcommand of cmd/ocb-experiments.
func Genericity(c Config) (*report.Table, error) {
	t := report.New("Genericity — one workload, every registered backend (same seed)",
		"Backend", "Objects visited", "Mean objects per tx", "Mean I/Os per tx",
		"Mean response (µs)", "Point lookup (µs)", "Range scan (µs)", "DSTC gain")

	n := 60
	if c.Quick {
		n = 30
	}
	names := backend.List()
	if len(names) == 0 {
		return nil, fmt.Errorf("genericity: no backends registered (missing driver bundle import?)")
	}
	signature := -1
	for _, name := range names {
		row, visited, err := genericityRow(c, name, n)
		if err != nil {
			return nil, fmt.Errorf("genericity %s: %w", name, err)
		}
		if signature == -1 {
			signature = visited
		} else if visited != signature {
			return nil, fmt.Errorf("genericity violated: backend %s visits %d objects, others visit %d",
				name, visited, signature)
		}
		t.AddRow(row...)
	}
	t.AddNote("identical workload seed per row; the visited-object signature is backend-invariant by construction")
	t.AddNote("flatmem is the infinitely-fast-I/O control: zero I/Os isolate navigation cost from faulting cost")
	t.AddNote("the remote row runs the hosted backend behind a loopback TCP server: its I/O and response columns include real serialization and round-trip cost")
	return t, nil
}

// genericityRow measures one backend for Genericity and returns its table
// row and visited-object signature. The row's store — and, for a remote
// driver, the loopback server it is aimed at — live exactly as long as the
// row: durable backends own files (an ephemeral waldisk holds a scratch
// directory), so each is released here, error paths included, not when
// the whole experiment returns.
func genericityRow(c Config, name string, n int) (row []string, visited int, err error) {
	p := c.mimicParams()
	p.Backend = name
	if name != c.backendName() {
		// -backend-opt settings belong to the selected driver; other
		// rows open their driver with its defaults.
		p.BackendOptions = nil
	}
	rowName := name
	if backend.InfoOf(name).Remote {
		// A remote driver has no store of its own: spin up a loopback
		// server hosting the default backend (same geometry as the
		// in-process rows) and aim the row at it. The row then prices
		// the wire — serialization and round trips on top of the
		// hosted store's own faulting cost.
		addr, stop, err := serveLoopback(p)
		if err != nil {
			return nil, 0, err
		}
		defer stop()
		p.BackendOptions = map[string]string{"addr": addr}
		rowName = fmt.Sprintf("%s(%s)", name, backend.DefaultName)
	}
	db, err := core.Generate(p)
	if err != nil {
		return nil, 0, err
	}
	defer db.Close()

	visited, err = oo1Signature(p, db)
	if err != nil {
		return nil, 0, fmt.Errorf("signature traversal: %w", err)
	}

	// One measured phase of the recurring workload, then the CluB
	// replay protocol with DSTC — or a clearly reported skip when the
	// backend cannot relocate.
	db.Store.DropCache()
	db.Store.ResetStats()
	m, err := core.NewRunner(db, nil).RunPhase("measure", n, 771+c.Seed)
	if err != nil {
		return nil, 0, err
	}
	// Check the capability up front: the replay protocol's observation
	// phases are wasted work when the backend cannot relocate anyway.
	gain := "skipped (no Relocator)"
	if _, err := backend.AsRelocator(db.Store); err == nil {
		// CluB's stereotyped shape: the measured pass itself recurs.
		seed := 771 + c.Seed
		res, err := scenarios.OCBClustering(db, dstc.NewCluBStyle(), n, n, seed, []int64{seed, seed, seed}).Run()
		if err != nil {
			return nil, 0, fmt.Errorf("clustering: %w", err)
		}
		gain = report.F2(res.Gain)
	}

	// The ordered-index columns: zipfian point lookups and OID range
	// scans through the Ranger capability, or a clearly reported skip
	// when the backend keeps no index.
	point, scan := "skipped (no Ranger)", "skipped (no Ranger)"
	if rg, err := backend.AsRanger(db.Store); err == nil {
		pt, sc, err := queryProfile(rg, db.Store, p.NO, n, 771+c.Seed)
		if err != nil {
			return nil, 0, fmt.Errorf("query profile: %w", err)
		}
		point, scan = report.F1(pt), report.F1(sc)
	}

	return []string{rowName, report.Int(visited), report.F1(m.Total.Objects.Mean()),
		report.F1(m.MeanIOsPerOp()), report.F1(m.Total.Response.Mean()), point, scan, gain}, visited, nil
}

// queryProfile measures the ordered-index face of a backend: the mean
// response, in microseconds, of runs zipfian point lookups (each a Seek
// resolved through the index plus the fault of the object, flushed on its
// own so the column prices one lookup) and
// of runs OID range scans over a tenth-of-the-database window, faulted
// with AccessBatch. Index reads charge no I/O by contract, so the
// difference between backends here is pure index machinery — and, on the
// remote row, the wire.
func queryProfile(rg backend.Ranger, st backend.Backend, objects, runs int, seed int64) (point, scan float64, err error) {
	src := lewis.New(seed)
	zipf := lewis.NewZipf(0.86)
	// The targets are drawn before the clock starts: the column prices the
	// lookup, not the sampler (nor its one-time table build).
	targets := make([]backend.OID, runs)
	for i := range targets {
		targets[i] = backend.OID(zipf.Draw(src, 1, objects, 0))
	}
	stream := workload.AccessStream{Store: st}
	start := time.Now()
	for _, target := range targets {
		oid, ok := rg.Seek(target, false)
		if !ok {
			if oid, ok = rg.Seek(target, true); !ok {
				return 0, 0, fmt.Errorf("ordered index is empty")
			}
		}
		if _, err := stream.End(stream.Visit(backend.NilOID, oid)); err != nil {
			return 0, 0, err
		}
	}
	point = float64(time.Since(start).Nanoseconds()) / 1e3 / float64(runs)

	span := objects / 10
	if span < 1 {
		span = 1
	}
	buf := make([]backend.OID, 0, span)
	start = time.Now()
	for i := 0; i < runs; i++ {
		lo := backend.OID(src.IntRange(1, objects-span+1))
		res, err := rg.Scan(lo, lo+backend.OID(span)-1, 0, false, buf[:0])
		if err != nil {
			return 0, 0, err
		}
		buf = res[:0]
		if _, err := st.AccessBatch(res); err != nil {
			return 0, 0, err
		}
	}
	scan = float64(time.Since(start).Nanoseconds()) / 1e3 / float64(runs)
	return point, scan, nil
}

// serveLoopback starts an in-process wire server on a loopback port,
// hosting the default backend with the experiment's geometry, and
// returns the address plus a stop function (idempotent) that drains the
// server and releases the hosted store.
func serveLoopback(p core.Params) (addr string, stop func(), err error) {
	hosted, err := backend.Open(backend.DefaultName, backend.Config{
		PageSize:    p.PageSize,
		BufferPages: p.BufferPages,
		Policy:      p.BufferPolicy,
	})
	if err != nil {
		return "", nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = backend.Shutdown(hosted)
		return "", nil, err
	}
	srv := wire.NewServer(hosted, backend.DefaultName, nil)
	go func() { _ = srv.Serve(ln) }()
	var once sync.Once
	stop = func() {
		once.Do(func() {
			srv.Shutdown()
			_ = backend.Shutdown(hosted)
		})
	}
	return ln.Addr().String(), stop, nil
}
