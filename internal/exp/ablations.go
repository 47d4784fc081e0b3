package exp

import (
	"fmt"

	"ocb/internal/backend"
	"ocb/internal/core"
	"ocb/internal/dstc"
	"ocb/internal/lewis"
	"ocb/internal/report"
	"ocb/internal/scenarios"
)

// Policies reproduces ablation A1: every clustering policy on the same
// database and the same single-type recurring workload, compared on the
// paper's before/after/gain axes plus the clustering overhead each policy
// charges.
func Policies(c Config) (*report.Table, error) {
	t := report.New("A1 — clustering policy shoot-out (single-type recurring workload)",
		"Policy", "I/Os before", "I/Os after", "Gain", "Clustering I/Os", "Objects moved")

	n := 60
	if c.Quick {
		n = 30
	}
	seed := 771 + c.Seed
	for _, name := range scenarios.PolicyNames() {
		p := c.mimicParams() // single-type CluB-like workload (PSimple=1)
		db, err := core.Generate(p)
		if err != nil {
			return nil, fmt.Errorf("policies %s: %w", name, err)
		}
		policy, err := scenarios.NewPolicy(name, db)
		if err != nil {
			_ = backend.Shutdown(db.Store)
			return nil, err
		}
		// CluB's stereotyped shape: the measured pass itself recurs.
		res, err := scenarios.OCBClustering(db, policy, n, n, seed, []int64{seed, seed, seed}).Run()
		// Each row's database goes before the next is generated, not when
		// the experiment returns; a failed release of a scratch store does
		// not change the row. The loops below release theirs the same way.
		_ = backend.Shutdown(db.Store)
		if err != nil {
			return nil, fmt.Errorf("policies %s: %w", name, err)
		}
		t.AddRow(name, report.F1(res.Before), report.F1(res.After), report.F2(res.Gain),
			report.U64(res.ClusteringIOs), report.Int(res.Reloc.ObjectsMoved))
	}
	t.AddNote("same database geometry and transaction stream for every policy")
	return t, nil
}

// BufferSweep reproduces ablation A2 (the paper's "optimal hardware
// configuration" use case, Section 2): mean transaction I/Os and buffer
// hit ratio as the page-frame budget grows, without clustering.
func BufferSweep(c Config) (*report.Table, error) {
	buffers := []int{64, 128, 256, 512, 1024}
	n := 300
	if c.Quick {
		buffers = []int{32, 64, 128}
		n = 120
	}
	t := report.New("A2 — buffer size sweep (no clustering)",
		"Buffer pages", "Mean I/Os per tx", "Hit ratio", "DB pages")
	for i, b := range buffers {
		p := c.mimicParams()
		p.BufferPages = b
		db, err := generateWithCacheBudget(p, b)
		if err != nil {
			return nil, fmt.Errorf("buffer sweep %d: %w", b, err)
		}
		if i == 0 && db.Store.Stats().Pages == 0 {
			// A backend without a page cache ignores the frame budget;
			// every row would measure the same nothing.
			_ = backend.Shutdown(db.Store)
			return nil, fmt.Errorf("%w: buffer-pool sizing (backend has no page cache)", backend.ErrNotSupported)
		}
		db.Store.DropCache()
		r := core.NewRunner(db, nil)
		m, err := r.RunPhase("sweep", n, 4242+c.Seed)
		st := db.Store.Stats()
		_ = backend.Shutdown(db.Store)
		if err != nil {
			return nil, fmt.Errorf("buffer sweep %d: %w", b, err)
		}
		t.AddRow(report.Int(b), report.F1(m.MeanIOsPerOp()),
			report.F2(st.Pool.HitRatio()), report.Int(st.Pages))
	}
	return t, nil
}

// generateWithCacheBudget generates the sweep database with the frame
// budget applied to whichever cache the driver actually has: drivers
// whose read cache is sized by their own "cachepages" backend option
// (waldisk) get the budget through it, page-pool drivers through the
// typed BufferPages hint. The option spelling is tried first; a driver
// that rejects the key falls back to the plain generate, so the sweep
// stays backend-agnostic.
func generateWithCacheBudget(p core.Params, pages int) (*core.Database, error) {
	opts := make(map[string]string, len(p.BackendOptions)+1)
	for k, v := range p.BackendOptions {
		opts[k] = v
	}
	opts["cachepages"] = fmt.Sprintf("%d", pages)
	po := p
	po.BackendOptions = opts
	if db, err := core.Generate(po); err == nil {
		return db, nil
	}
	return core.Generate(p)
}

// Reverse reproduces ablation A4: forward vs reversed transactions
// ("ascending the graphs" through backward references, Section 3.3).
func Reverse(c Config) (*report.Table, error) {
	n := 200
	if c.Quick {
		n = 80
	}
	t := report.New("A4 — forward vs reversed traversals",
		"Direction", "Mean I/Os per tx", "Mean objects per tx")
	for _, rev := range []bool{false, true} {
		p := c.mimicParams()
		if rev {
			p.PReverse = 1
		}
		db, err := core.Generate(p)
		if err != nil {
			return nil, fmt.Errorf("reverse: %w", err)
		}
		db.Store.DropCache()
		r := core.NewRunner(db, nil)
		m, err := r.RunPhase("dir", n, 555+c.Seed)
		_ = backend.Shutdown(db.Store)
		if err != nil {
			return nil, fmt.Errorf("reverse: %w", err)
		}
		name := "forward"
		if rev {
			name = "reversed"
		}
		t.AddRow(name, report.F1(m.MeanIOsPerOp()), report.F1(m.Total.Objects.Mean()))
	}
	return t, nil
}

// DSTCSensitivity reproduces ablation A5: DSTC's tunables (observation
// period and selection threshold) against the Table 4 OCB workload.
func DSTCSensitivity(c Config) (*report.Table, error) {
	obsN, measN := 120, 60
	if c.Quick {
		obsN, measN = 60, 30
	}
	t := report.New("A5 — DSTC parameter sensitivity (single-type workload)",
		"ObservationPeriod", "Tfa", "Gain", "Objects moved", "Units")
	type cell struct {
		period int
		tfa    float64
	}
	cells := []cell{
		{1 << 30, 1}, {1 << 30, 2}, {1 << 30, 5},
		{50, 2}, {10, 2},
	}
	if c.Quick {
		cells = cells[:3]
	}
	for _, cl := range cells {
		p := c.mimicParams()
		db, err := core.Generate(p)
		if err != nil {
			return nil, fmt.Errorf("dstc sensitivity: %w", err)
		}
		d := dstc.New(dstc.Params{
			ObservationPeriod: cl.period,
			Tfa:               cl.tfa,
			Tfc:               cl.tfa,
			MaxUnitBytes:      1 << 16,
		})
		seed := 999331 + c.Seed
		res, err := scenarios.OCBClustering(db, d, obsN, measN, seed, heldOutSeeds(seed)).Run()
		_ = backend.Shutdown(db.Store)
		if err != nil {
			return nil, fmt.Errorf("dstc sensitivity: %w", err)
		}
		period := fmt.Sprintf("%d", cl.period)
		if cl.period == 1<<30 {
			period = "whole run"
		}
		t.AddRow(period, report.F1(cl.tfa), report.F2(res.Gain),
			report.Int(res.Reloc.ObjectsMoved), report.Int(d.Stats().UnitsBuilt))
	}
	t.AddNote("short periods fragment the statistics: links crossed once per period fail selection")
	return t, nil
}

// TypeBreakdown reports OCB's per-transaction-type metrics (response time,
// accessed objects, I/Os) for the default mixed workload — the
// measurement surface Section 3.3 defines.
func TypeBreakdown(c Config) (*report.Table, error) {
	p := c.mixedParams()
	n := 800
	if c.Quick {
		n = 200
	}
	db, err := core.Generate(p)
	if err != nil {
		return nil, err
	}
	defer backend.Shutdown(db.Store)
	db.Store.DropCache()
	r := core.NewRunner(db, nil)
	m, err := r.RunPhase("types", n, 808+c.Seed)
	if err != nil {
		return nil, err
	}
	return report.ResultTable("Per-transaction-type metrics (default workload mix)", m), nil
}

// RootSkew reproduces ablation A7: the transaction-root distribution
// (RAND5/DIST5) is one of OCB's levers for modeling application behaviour;
// skewed roots concentrate the working set and change how much clustering
// can help. Zipf-skewed roots against uniform ones, same database, same
// DSTC tuning, held-out protocol.
func RootSkew(c Config) (*report.Table, error) {
	obsN, measN := 120, 60
	if c.Quick {
		obsN, measN = 60, 30
	}
	t := report.New("A7 — transaction-root distribution (RAND5) skew",
		"DIST5", "I/Os before", "I/Os after", "Gain")
	for _, spec := range []string{"uniform", "zipf:1"} {
		dist, err := lewis.ParseDistribution(spec)
		if err != nil {
			return nil, err
		}
		p := c.mimicParams()
		p.Dist5 = dist
		db, err := core.Generate(p)
		if err != nil {
			return nil, fmt.Errorf("root skew %s: %w", spec, err)
		}
		seed := 999331 + c.Seed
		res, err := scenarios.OCBClustering(db, dstc.NewCluBStyle(), obsN, measN, seed, heldOutSeeds(seed)).Run()
		_ = backend.Shutdown(db.Store)
		if err != nil {
			return nil, fmt.Errorf("root skew %s: %w", spec, err)
		}
		t.AddRow(spec, report.F1(res.Before), report.F1(res.After), report.F2(res.Gain))
	}
	t.AddNote("zipf roots concentrate the workload on a hot region — more stereotyped, more gain")
	return t, nil
}

// GenericWorkload reproduces ablation A6 — the paper's Section 5
// extension: the "fully generic" transaction set (the four
// clustering-oriented types plus update, insertion, deletion, sequential
// scan and range lookup) run as one workload, reported per type.
func GenericWorkload(c Config) (*report.Table, error) {
	p := core.GenericParams()
	p.NO = 8000
	p.SupRef = 8000
	p.BufferPages = 176
	p.Backend = c.Backend
	p.BackendOptions = c.BackendOptions
	n := 600
	if c.Quick {
		p.NO = 2000
		p.SupRef = 2000
		p.BufferPages = 52
		n = 200
	}
	db, err := core.Generate(p)
	if err != nil {
		return nil, err
	}
	defer backend.Shutdown(db.Store)
	db.Store.DropCache()
	r := core.NewRunner(db, nil)
	m, err := r.RunPhase("generic", n, 1515+c.Seed)
	if err != nil {
		return nil, err
	}
	if err := core.CheckDatabase(db); err != nil {
		return nil, fmt.Errorf("generic workload corrupted the database: %w", err)
	}
	t := report.ResultTable("A6 — fully generic workload (Section 5 extension)", m)
	t.AddNote("live objects after churn: %d (started at %d)", db.NumLive(), p.NO)
	return t, nil
}

// GenericityCheck is the experiment behind the paper's genericity claim:
// the OO1-shaped traversal (3280 parts at depth 7, fan-out 3) falls out of
// OCB's CluB parameterization. It reports the objects visited by one
// simple traversal from a class-1 root on the Table 3 database.
func GenericityCheck(c Config) (*report.Table, error) {
	p := c.mimicParams()
	db, err := core.Generate(p)
	if err != nil {
		return nil, err
	}
	defer backend.Shutdown(db.Store)
	visited, err := oo1Signature(p, db)
	if err != nil {
		return nil, err
	}
	t := report.New("Genericity — OO1's traversal shape from OCB's Table 3 parameters",
		"Traversal", "Objects visited", "OO1 reference value")
	t.AddRow("simple traversal, depth 7, fan-out 3", report.Int(visited), "3280")
	return t, nil
}
