// Command ocb runs one fully configured OCB benchmark end to end.
//
// Without a subcommand, ocb is the classic flag mode: every Table 1 /
// Table 2 parameter is a flag, and the run is the `ocb` scenario preset's
// §3.3 protocol over them — generate the parameterized database, a cold
// run, a reorganization with the -cluster policy (none by default), a warm
// run — printed as `ocb run` prints a scenario: the response time,
// accessed objects and I/Os of each phase, globally and per transaction
// type, and what the reorganization moved and cost in clustering I/Os.
// -preset chooses the parameter set the other flags override; a flag set
// out of range is an error, never silently the preset's value.
// Distributions accept the specs of lewis.ParseDistribution (uniform,
// constant[:k], roundrobin, zipf[:s], normal, negexp[:m], refzone:z[:p]).
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
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ocb/internal/backend"
	_ "ocb/internal/backend/all"
	"ocb/internal/core"
	"ocb/internal/lewis"
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
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "ocb: %v\n", err)
		os.Exit(1)
	}
}

// run is the classic flag mode: every Table 1/2 parameter is a flag, and
// the run is the ocb preset's protocol over them (scenarios.OCB) — cold
// run, reorganization with the -cluster policy, warm run — printed the
// way `ocb run` prints a scenario.
func run(args []string) error {
	p, policy, err := parseClassic(args)
	if err != nil {
		return err
	}
	sc, err := scenarios.OCB(p, policy)
	if err != nil {
		return err
	}
	// Durable backends own files (ephemeral ones a scratch directory);
	// release the store once the protocol is done.
	defer sc.Close()
	printHeader(sc)
	return runAndPrint(sc)
}

// parseClassic parses the classic mode's flags into the parameters and
// the clustering policy name. -preset chooses the values every other
// flag overrides, so the arguments are parsed twice: once to learn the
// preset, then onto it. A flag the user sets replaces the preset's value
// unchanged, for Params.Validate to judge; one left unset keeps it.
func parseClassic(args []string) (core.Params, string, error) {
	p := core.DefaultParams()
	var opts backend.OptionFlags
	fs, preset, _ := classicFlags(&p, &opts)
	_ = fs.Parse(args) // ExitOnError: a bad flag exits here
	switch *preset {
	case "default":
		p = core.DefaultParams()
	case "club":
		p = core.CluBParams()
	case "generic":
		p = core.GenericParams()
	default:
		return p, "", fmt.Errorf("unknown preset %q", *preset)
	}
	opts = nil
	fs, _, policy := classicFlags(&p, &opts)
	_ = fs.Parse(args)
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	// The class and object intervals follow a resized database unless
	// given explicitly.
	if set["nc"] && !set["supclass"] {
		p.SupClass = p.NC
	}
	if set["no"] && !set["supref"] {
		p.SupRef = p.NO
	}
	var err error
	p.BackendOptions, err = backend.ParseOptions(opts)
	return p, *policy, err
}

// classicFlags declares the classic mode's flags, binding every Table 1/2
// parameter and the backend name to their fields of p, and the
// backend-specific options to opts.
func classicFlags(p *core.Params, opts *backend.OptionFlags) (fs *flag.FlagSet, preset, policy *string) {
	fs = flag.NewFlagSet("ocb", flag.ExitOnError)
	preset = fs.String("preset", "default", "parameter preset the other flags override: default | club | generic")
	// Database parameters (Table 1).
	fs.IntVar(&p.NC, "nc", p.NC, "NC: number of classes")
	fs.IntVar(&p.MaxNRef, "maxnref", p.MaxNRef, "MAXNREF: references per class")
	fs.IntVar(&p.BaseSize, "basesize", p.BaseSize, "BASESIZE: instance base size (bytes)")
	fs.IntVar(&p.NO, "no", p.NO, "NO: total number of objects")
	fs.IntVar(&p.NRefT, "nreft", p.NRefT, "NREFT: number of reference types")
	fs.IntVar(&p.InfClass, "infclass", p.InfClass, "INFCLASS")
	fs.IntVar(&p.SupClass, "supclass", p.SupClass, "SUPCLASS (NC when only -nc is set)")
	fs.IntVar(&p.InfRef, "infref", p.InfRef, "INFREF")
	fs.IntVar(&p.SupRef, "supref", p.SupRef, "SUPREF (NO when only -no is set)")
	for i, d := range []struct {
		dst   *lewis.Distribution
		usage string
	}{
		{&p.Dist1, "DIST1: reference type distribution"},
		{&p.Dist2, "DIST2: class reference distribution"},
		{&p.Dist3, "DIST3: object class distribution"},
		{&p.Dist4, "DIST4: object reference distribution"},
		{&p.Dist5, "RAND5: transaction root distribution"},
	} {
		fs.Func(fmt.Sprintf("dist%d", i+1), d.usage, func(spec string) error {
			dist, err := lewis.ParseDistribution(spec)
			*d.dst = dist
			return err
		})
	}
	// Workload parameters (Table 2).
	fs.IntVar(&p.SetDepth, "setdepth", p.SetDepth, "SETDEPTH")
	fs.IntVar(&p.SimDepth, "simdepth", p.SimDepth, "SIMDEPTH")
	fs.IntVar(&p.HieDepth, "hiedepth", p.HieDepth, "HIEDEPTH")
	fs.IntVar(&p.StoDepth, "stodepth", p.StoDepth, "STODEPTH")
	fs.IntVar(&p.ColdN, "coldn", p.ColdN, "COLDN: cold-run transactions")
	fs.IntVar(&p.HotN, "hotn", p.HotN, "HOTN: warm-run transactions")
	fs.DurationVar(&p.Think, "think", p.Think, "THINK latency between transactions")
	fs.Float64Var(&p.PSet, "pset", p.PSet, "PSET")
	fs.Float64Var(&p.PSimple, "psimple", p.PSimple, "PSIMPLE")
	fs.Float64Var(&p.PHier, "phier", p.PHier, "PHIER")
	fs.Float64Var(&p.PStoch, "pstoch", p.PStoch, "PSTOCH")
	fs.Float64Var(&p.PReverse, "preverse", p.PReverse, "probability of reversed transactions")
	fs.IntVar(&p.ClientN, "clients", p.ClientN, "CLIENTN: concurrent clients")
	fs.Int64Var(&p.Seed, "seed", p.Seed, "random seed")
	// System under test. Backend-specific geometry (page size, buffer
	// frames ...) travels as -backend-opt key=value pairs so a
	// backend only sees options it understands; the driver validates the
	// keys and rejects unknown ones naming the valid set.
	fs.StringVar(&p.Backend, "backend", backend.DefaultName,
		fmt.Sprintf("system-under-test backend: %s", strings.Join(backend.List(), " | ")))
	fs.Var(opts, "backend-opt",
		"backend-specific option key=value (repeatable); e.g. -backend-opt pagesize=4096 -backend-opt buffer=512 for paged")
	policy = fs.String("cluster", "none", "clustering policy, reorganizing between the cold and warm runs: "+
		strings.Join(scenarios.PolicyNames(), " | "))
	return fs, preset, policy
}
