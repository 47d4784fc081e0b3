package exp

import (
	"fmt"
	"time"

	"ocb/internal/backend"
	"ocb/internal/club"
	"ocb/internal/core"
	"ocb/internal/dstc"
	"ocb/internal/oo1"
	"ocb/internal/report"
	"ocb/internal/scenarios"
)

// Table1 renders the OCB database parameters and their defaults, generated
// from the code so the implementation is the source of truth (paper
// Table 1).
func Table1(Config) (*report.Table, error) {
	p := core.DefaultParams()
	t := report.New("Table 1 — OCB database parameters (defaults)",
		"Name", "Parameter", "Default value")
	t.AddRow("NC", "Number of classes in the database", report.Int(p.NC))
	t.AddRow("MAXNREF (i)", "Maximum number of references, per class", report.Int(p.MaxNRef))
	t.AddRow("BASESIZE (i)", "Instances base size, per class", fmt.Sprintf("%d bytes", p.BaseSize))
	t.AddRow("NO", "Total number of objects", report.Int(p.NO))
	t.AddRow("NREFT", "Number of reference types", report.Int(p.NRefT))
	t.AddRow("INFCLASS", "Inferior bound, set of referenced classes", report.Int(p.InfClass))
	t.AddRow("SUPCLASS", "Superior bound, set of referenced classes", "NC")
	t.AddRow("INFREF", "Inferior bound, set of referenced objects", report.Int(p.InfRef))
	t.AddRow("SUPREF", "Superior bound, set of referenced objects", "NO")
	t.AddRow("DIST1", "Reference types random distribution", p.Dist1.Name())
	t.AddRow("DIST2", "Class references random distribution", p.Dist2.Name())
	t.AddRow("DIST3", "Objects in classes random distribution", p.Dist3.Name())
	t.AddRow("DIST4", "Objects references random distribution", p.Dist4.Name())
	return t, nil
}

// Table2 renders the OCB workload parameters and their defaults (paper
// Table 2).
func Table2(Config) (*report.Table, error) {
	p := core.DefaultParams()
	t := report.New("Table 2 — OCB workload parameters (defaults)",
		"Name", "Parameter", "Default value")
	t.AddRow("SETDEPTH", "Set-oriented Access depth", report.Int(p.SetDepth))
	t.AddRow("SIMDEPTH", "Simple Traversal depth", report.Int(p.SimDepth))
	t.AddRow("HIEDEPTH", "Hierarchy Traversal depth", report.Int(p.HieDepth))
	t.AddRow("STODEPTH", "Stochastic Traversal depth", report.Int(p.StoDepth))
	t.AddRow("COLDN", "Transactions executed during cold run", report.Int(p.ColdN))
	t.AddRow("HOTN", "Transactions executed during warm run", report.Int(p.HotN))
	t.AddRow("THINK", "Average latency time between transactions", p.Think.String())
	t.AddRow("PSET", "Set Access occurrence probability", report.F2(p.PSet))
	t.AddRow("PSIMPLE", "Simple Traversal occurrence probability", report.F2(p.PSimple))
	t.AddRow("PHIER", "Hierarchy Traversal occurrence probability", report.F2(p.PHier))
	t.AddRow("PSTOCH", "Stochastic Traversal occurrence probability", report.F2(p.PStoch))
	t.AddRow("RAND5", "Transaction root object random distribution", p.Dist5.Name())
	t.AddRow("CLIENTN", "Number of clients", report.Int(p.ClientN))
	return t, nil
}

// Table3 renders the OCB parameterization that approximates DSTC-CluB's
// database (paper Table 3).
func Table3(Config) (*report.Table, error) {
	p := core.CluBParams()
	t := report.New("Table 3 — OCB database parameters approximating DSTC-CluB",
		"Name", "Parameter", "Value")
	t.AddRow("NC", "Number of classes in the database", report.Int(p.NC))
	t.AddRow("MAXNREF", "Maximum number of references, per class", report.Int(p.MaxNRef))
	t.AddRow("BASESIZE", "Instances base size, per class", fmt.Sprintf("%d bytes", p.BaseSize))
	t.AddRow("NO", "Total number of objects", report.Int(p.NO))
	t.AddRow("NREFT", "Number of reference types", report.Int(p.NRefT))
	t.AddRow("INFCLASS", "Inferior bound, set of referenced classes", report.Int(p.InfClass))
	t.AddRow("SUPCLASS", "Superior bound, set of referenced classes", "NC")
	t.AddRow("INFREF", "Inferior bound, set of referenced objects", "PartId - RefZone")
	t.AddRow("SUPREF", "Superior bound, set of referenced objects", "PartId + RefZone")
	t.AddRow("DIST1", "Reference types random distribution", p.Dist1.Name())
	t.AddRow("DIST2", "Class references random distribution", p.Dist2.Name())
	t.AddRow("DIST3", "Objects in classes random distribution", p.Dist3.Name())
	t.AddRow("DIST4", "Objects references random distribution", p.Dist4.Name()+" (special)")
	t.AddNote("workload: PSIMPLE=1, SIMDEPTH=%d (OO1's traversal)", p.SimDepth)
	return t, nil
}

// Fig4 reproduces Figure 4: database average creation time as a function
// of the database size, for 1-class, 20-class and 50-class schemas.
func Fig4(c Config) (*report.Table, error) {
	sizes := []int{10, 100, 1000, 10000, 20000}
	classes := []int{1, 20, 50}
	runs := 3
	if c.Quick {
		sizes = []int{10, 100, 1000}
		classes = []int{1, 20}
		runs = 1
	}
	headers := []string{"Objects"}
	for _, nc := range classes {
		headers = append(headers, fmt.Sprintf("%d class(es)", nc))
	}
	t := report.New("Figure 4 — database average creation time (s) vs size", headers...)
	for _, no := range sizes {
		row := []string{report.Int(no)}
		for _, nc := range classes {
			var total time.Duration
			for r := 0; r < runs; r++ {
				p := core.DefaultParams()
				p.NC = nc
				p.SupClass = nc
				p.NO = no
				p.SupRef = no
				p.Seed = p.Seed + c.Seed + int64(r)
				p.Backend = c.Backend
				p.BackendOptions = c.BackendOptions
				db, err := core.Generate(p)
				if err != nil {
					return nil, fmt.Errorf("fig4 NC=%d NO=%d: %w", nc, no, err)
				}
				total += db.GenTime
				// Release each database before generating the next, so a
				// cell's creation time is not measured with every earlier
				// one still resident. (A failed release of a scratch store
				// does not change the table.)
				_ = backend.Shutdown(db.Store)
			}
			row = append(row, fmt.Sprintf("%.4f", (total/time.Duration(runs)).Seconds()))
		}
		t.AddRow(row...)
	}
	t.AddNote("mean of %d generation runs per cell; the paper reports seconds on a SPARC/ELC", runs)
	return t, nil
}

// Table4 reproduces Table 4: Texas/DSTC performance measured with
// DSTC-CluB and with OCB parameterized to approximate CluB (Table 3).
// CluB runs its own stereotyped protocol (observe the recurring traversal
// workload, recluster, replay); the OCB row uses OCB's protocol with
// held-out measurement transactions.
func Table4(c Config) (*report.Table, error) {
	t := report.New("Table 4 — DSTC performance, measured with DSTC-CluB and with OCB",
		"Benchmark", "I/Os before reclustering", "I/Os after reclustering", "Gain factor")

	// Row 1: DSTC-CluB over the OO1 database. CluB's recurring workload is
	// deliberately narrow (few roots, repeated) and its DSTC tuning is the
	// one its authors picked for that workload (large clustering units) —
	// the regime that flatters DSTC, which is the paper's point.
	cp := club.Params{OO1: c.clubOO1Params(), Roots: 5, Repeats: 3, Seed: 1996 + c.Seed}
	if c.Quick {
		cp.Roots = 8
	}
	cd := dstc.New(dstc.Params{ObservationPeriod: 1 << 30, Tfa: 2, Tfc: 2, MaxUnitBytes: 1 << 18})
	cdb, err := oo1.Generate(cp.OO1)
	if err != nil {
		return nil, fmt.Errorf("table4 club: %w", err)
	}
	cres, err := scenarios.CluBClustering(cdb, cp, cd).Run()
	_ = backend.Shutdown(cdb.Store)
	if err != nil {
		return nil, fmt.Errorf("table4 club: %w", err)
	}
	t.AddRow("DSTC-CluB", report.F1(cres.Before), report.F1(cres.After), report.F2(cres.Gain))

	// Row 2: OCB tuned to approximate CluB (Table 3 parameters).
	mp := c.mimicParams()
	db, err := core.Generate(mp)
	if err != nil {
		return nil, fmt.Errorf("table4 mimic: %w", err)
	}
	defer backend.Shutdown(db.Store)
	obsN, measN := 200, 100
	if c.Quick {
		obsN, measN = 60, 30
	}
	seed := 999331 + c.Seed
	mres, err := scenarios.OCBClustering(db, dstc.NewCluBStyle(), obsN, measN, seed, heldOutSeeds(seed)).Run()
	if err != nil {
		return nil, fmt.Errorf("table4 mimic protocol: %w", err)
	}
	t.AddRow("OCB", report.F1(mres.Before), report.F1(mres.After), report.F2(mres.Gain))
	t.AddNote("paper (Texas on SPARC/ELC): CluB 66 -> 5 (13.2), OCB 61 -> 7 (8.71)")
	t.AddNote("clustering overhead: CluB %d I/Os, OCB %d I/Os", cres.ClusteringIOs, mres.ClusteringIOs)
	return t, nil
}

// Table5 reproduces Table 5: DSTC under OCB's default workload parameters
// (Table 2) — the mixed four-type transaction stream — over the same
// CluB-approximating database, with held-out measurement.
func Table5(c Config) (*report.Table, error) {
	p := c.mimicParams()
	d := core.DefaultParams()
	p.PSet, p.PSimple, p.PHier, p.PStoch = d.PSet, d.PSimple, d.PHier, d.PStoch
	p.SetDepth, p.SimDepth, p.HieDepth, p.StoDepth = d.SetDepth, d.SimDepth, d.HieDepth, d.StoDepth
	db, err := core.Generate(p)
	if err != nil {
		return nil, fmt.Errorf("table5: %w", err)
	}
	defer backend.Shutdown(db.Store)
	obsN, measN := 2000, 1000
	if c.Quick {
		obsN, measN = 400, 200
	}
	seed := 999331 + c.Seed
	res, err := scenarios.OCBClustering(db, dstc.NewCluBStyle(), obsN, measN, seed, heldOutSeeds(seed)).Run()
	if err != nil {
		return nil, fmt.Errorf("table5 protocol: %w", err)
	}
	t := report.New("Table 5 — DSTC performance with OCB's default (mixed) workload",
		"Benchmark", "I/Os before reclustering", "I/Os after reclustering", "Gain factor")
	t.AddRow("OCB", report.F1(res.Before), report.F1(res.After), report.F2(res.Gain))
	t.AddNote("paper: 31 -> 12 (gain 2.58); the mixed workload blunts DSTC vs Table 4")
	t.AddNote("clustering overhead: %d I/Os", res.ClusteringIOs)
	return t, nil
}
