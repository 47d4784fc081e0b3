// Command ocb runs one fully configured OCB benchmark end to end:
// generate the parameterized database, optionally attach a clustering
// policy, execute the cold/warm protocol, optionally reorganize between
// phases, and print the paper's metrics (response time, accessed objects,
// I/Os — globally and per transaction type).
//
// Every Table 1 / Table 2 parameter is a flag; distributions accept the
// specs of lewis.ParseDistribution (uniform, constant[:k], roundrobin,
// zipf[:s], normal, negexp[:m], refzone:z[:p]).
//
// Subcommands:
//
//	ocb run -scenario oo1|oo7|hypermodel|dstc|ocb [flags]
//	ocb run -scenario-file spec.json [flags]
//	ocb sweep -scenario oo1 -clients 1,2,4 -rates 500,1000 [flags]
//	ocb scenarios
//	ocb serve -addr host:port -backend paged [flags]
//
// `ocb run` executes a scenario preset — any of the benchmark suites, or
// a user-authored JSON mix — through the unified workload engine and
// prints one result table per phase (throughput, latency quantiles,
// per-op breakdown, capability skips); a spec file with an "slo" block
// makes it a performance test (non-zero exit on violation). `ocb sweep`
// drives one scenario across a CLIENTN × arrival-rate grid (or, with
// -search-p95, binary-searches the max sustainable rate) and prints the
// latency-under-load table. `ocb scenarios` lists the presets.
// `ocb serve` hosts any local backend on a TCP address so other ocb
// processes can benchmark it via `-backend remote -backend-opt addr=...`.
// Without a subcommand, ocb runs the classic flag-configured protocol.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"ocb/internal/backend"
	_ "ocb/internal/backend/all"
	"ocb/internal/cluster"
	"ocb/internal/core"
	"ocb/internal/dstc"
	"ocb/internal/lewis"
	"ocb/internal/report"
	"ocb/internal/scenarios"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "run":
			if err := runScenario(os.Args[2:]); err != nil {
				fmt.Fprintf(os.Stderr, "ocb run: %v\n", err)
				os.Exit(1)
			}
			return
		case "sweep":
			if err := sweepScenario(os.Args[2:]); err != nil {
				fmt.Fprintf(os.Stderr, "ocb sweep: %v\n", err)
				os.Exit(1)
			}
			return
		case "scenarios":
			for _, name := range scenarios.List() {
				fmt.Printf("%-11s %s\n", name, scenarios.Describe(name))
			}
			return
		case "serve":
			if err := serve(os.Args[2:]); err != nil {
				fmt.Fprintf(os.Stderr, "ocb serve: %v\n", err)
				os.Exit(1)
			}
			return
		}
	}
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "ocb: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	p := core.DefaultParams()

	preset := flag.String("preset", "default", "parameter preset: default | club | generic")
	// Database parameters (Table 1).
	nc := flag.Int("nc", 0, "NC: number of classes (0 keeps the preset)")
	maxnref := flag.Int("maxnref", 0, "MAXNREF: references per class")
	basesize := flag.Int("basesize", 0, "BASESIZE: instance base size (bytes)")
	no := flag.Int("no", 0, "NO: total number of objects")
	nreft := flag.Int("nreft", 0, "NREFT: number of reference types")
	infclass := flag.Int("infclass", -1, "INFCLASS (-1 keeps the preset)")
	supclass := flag.Int("supclass", 0, "SUPCLASS")
	infref := flag.Int("infref", 0, "INFREF")
	supref := flag.Int("supref", 0, "SUPREF")
	dist1 := flag.String("dist1", "", "DIST1: reference type distribution")
	dist2 := flag.String("dist2", "", "DIST2: class reference distribution")
	dist3 := flag.String("dist3", "", "DIST3: object class distribution")
	dist4 := flag.String("dist4", "", "DIST4: object reference distribution")
	dist5 := flag.String("dist5", "", "RAND5: transaction root distribution")
	// Workload parameters (Table 2).
	setdepth := flag.Int("setdepth", -1, "SETDEPTH")
	simdepth := flag.Int("simdepth", -1, "SIMDEPTH")
	hiedepth := flag.Int("hiedepth", -1, "HIEDEPTH")
	stodepth := flag.Int("stodepth", -1, "STODEPTH")
	coldn := flag.Int("coldn", -1, "COLDN: cold-run transactions")
	hotn := flag.Int("hotn", -1, "HOTN: warm-run transactions")
	think := flag.Duration("think", -1, "THINK latency between transactions")
	pset := flag.Float64("pset", -1, "PSET")
	psimple := flag.Float64("psimple", -1, "PSIMPLE")
	phier := flag.Float64("phier", -1, "PHIER")
	pstoch := flag.Float64("pstoch", -1, "PSTOCH")
	preverse := flag.Float64("preverse", -1, "probability of reversed transactions")
	clients := flag.Int("clients", 0, "CLIENTN: concurrent clients")
	// System under test. Backend-specific geometry (page size, buffer,
	// replacement policy ...) travels as -backend-opt key=value pairs so a
	// backend only sees options it understands; the driver validates the
	// keys and rejects unknown ones naming the valid set.
	backendName := flag.String("backend", backend.DefaultName,
		fmt.Sprintf("system-under-test backend: %s", strings.Join(backend.List(), " | ")))
	var backendOpts backend.OptionFlags
	flag.Var(&backendOpts, "backend-opt",
		"backend-specific option key=value (repeatable); e.g. -backend-opt pagesize=4096 -backend-opt buffer=512 for paged")
	seed := flag.Int64("seed", 0, "random seed (0 keeps the preset)")
	// Clustering.
	clust := flag.String("cluster", "none", "clustering policy: none | sequential | byclass | hot | greedy | dstc")
	reorg := flag.Bool("reorganize", true, "reorganize between the cold and warm runs")

	flag.Parse()

	switch *preset {
	case "default":
	case "club":
		p = core.CluBParams()
	case "generic":
		p = core.GenericParams()
	default:
		return fmt.Errorf("unknown preset %q", *preset)
	}

	setInt := func(dst *int, v int) {
		if v > 0 {
			*dst = v
		}
	}
	setInt(&p.NC, *nc)
	setInt(&p.MaxNRef, *maxnref)
	setInt(&p.BaseSize, *basesize)
	setInt(&p.NO, *no)
	setInt(&p.NRefT, *nreft)
	if *infclass >= 0 {
		p.InfClass = *infclass
	}
	setInt(&p.SupClass, *supclass)
	setInt(&p.InfRef, *infref)
	setInt(&p.SupRef, *supref)
	if *nc > 0 && *supclass == 0 {
		p.SupClass = p.NC
	}
	if *no > 0 && *supref == 0 {
		p.SupRef = p.NO
	}
	for _, d := range []struct {
		spec string
		dst  *lewis.Distribution
	}{{*dist1, &p.Dist1}, {*dist2, &p.Dist2}, {*dist3, &p.Dist3}, {*dist4, &p.Dist4}, {*dist5, &p.Dist5}} {
		if d.spec == "" {
			continue
		}
		dist, err := lewis.ParseDistribution(d.spec)
		if err != nil {
			return err
		}
		*d.dst = dist
	}
	setIfSet := func(dst *int, v int) {
		if v >= 0 {
			*dst = v
		}
	}
	setIfSet(&p.SetDepth, *setdepth)
	setIfSet(&p.SimDepth, *simdepth)
	setIfSet(&p.HieDepth, *hiedepth)
	setIfSet(&p.StoDepth, *stodepth)
	setIfSet(&p.ColdN, *coldn)
	setIfSet(&p.HotN, *hotn)
	if *think >= 0 {
		p.Think = *think
	}
	setProb := func(dst *float64, v float64) {
		if v >= 0 {
			*dst = v
		}
	}
	setProb(&p.PSet, *pset)
	setProb(&p.PSimple, *psimple)
	setProb(&p.PHier, *phier)
	setProb(&p.PStoch, *pstoch)
	setProb(&p.PReverse, *preverse)
	setInt(&p.ClientN, *clients)
	p.Backend = *backendName
	opts, err := backend.ParseOptions(backendOpts)
	if err != nil {
		return err
	}
	p.BackendOptions = opts
	if *seed != 0 {
		p.Seed = *seed
	}
	if err := p.Validate(); err != nil {
		return err
	}

	fmt.Printf("generating database: NC=%d NO=%d seed=%d ...\n", p.NC, p.NO, p.Seed)
	db, err := core.Generate(p)
	if err != nil {
		return err
	}
	// Durable backends own files (ephemeral ones a scratch directory);
	// release the store once the protocol is done.
	defer db.Close()
	st := db.Store.Stats()
	if st.Pages > 0 {
		fmt.Printf("generated in %s on backend %q: %d objects on %d pages\n\n",
			report.Dur(db.GenTime), *backendName, st.Objects, st.Pages)
	} else {
		fmt.Printf("generated in %s on backend %q: %d objects (no page abstraction)\n\n",
			report.Dur(db.GenTime), *backendName, st.Objects)
	}

	var policy cluster.Policy
	switch *clust {
	case "none", "":
		policy = nil
	case "sequential":
		policy = &cluster.Sequential{Objects: db.AllOIDs}
	case "byclass":
		policy = &cluster.ByClass{Objects: db.AllOIDs, Label: db.ClassOf}
	case "hot":
		policy = cluster.NewHot()
	case "greedy":
		policy = cluster.NewGreedy(1 << 16)
	case "dstc":
		policy = dstc.New(dstc.Params{ObservationPeriod: 1 << 30, MaxUnitBytes: 1 << 16})
	default:
		return fmt.Errorf("unknown clustering policy %q", *clust)
	}

	r := core.NewRunner(db, policy)
	cold, err := r.RunPhase("cold", p.ColdN, p.Seed+1)
	if err != nil {
		return err
	}
	printResult(cold)

	if policy != nil && *reorg {
		start := time.Now()
		rs, err := cluster.Reorganize(policy, db.Store)
		switch {
		case errors.Is(err, backend.ErrNotSupported):
			fmt.Printf("reorganization skipped: backend %q has no physical relocation\n\n", *backendName)
		case err != nil:
			return err
		default:
			fmt.Printf("reorganized with %s in %s: moved %d objects, %d pages read, %d written\n\n",
				policy.Name(), report.Dur(time.Since(start)), rs.ObjectsMoved, rs.PagesRead, rs.PagesWritten)
		}
	}

	warm, err := r.RunPhase("warm", p.HotN, p.Seed+2)
	if err != nil {
		return err
	}
	printResult(warm)

	final := db.Store.Stats()
	fmt.Printf("totals: %d transaction I/Os, %d clustering I/Os, %d objects accessed, hit ratio %.2f\n",
		final.Disk.TransactionIOs(), final.Disk.ClusteringIOs(),
		final.ObjectsAccessed, final.Pool.HitRatio())
	return nil
}
