package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ocb/internal/backend"
	"ocb/internal/report"
	"ocb/internal/scenarios"
	"ocb/internal/workload"
)

// scenarioFlags are the flags `ocb run` and `ocb sweep` share: which
// scenario to build, on which backend, how it is sized, seeded and
// paced. Each subcommand declares its own flags beside them.
type scenarioFlags struct {
	name, file, backend, thinkDist string
	backendOpts                    backend.OptionFlags
	warmup, measured               int
	quick                          bool
	seed                           int64
}

// declare registers the shared flags on a subcommand's flag set.
func (f *scenarioFlags) declare(fs *flag.FlagSet) {
	fs.StringVar(&f.name, "scenario", "", "scenario preset: "+strings.Join(scenarios.List(), " | "))
	fs.StringVar(&f.file, "scenario-file", "", "JSON scenario spec (see examples/scenarios/)")
	fs.StringVar(&f.backend, "backend", backend.DefaultName,
		fmt.Sprintf("system-under-test backend: %s", strings.Join(backend.List(), " | ")))
	fs.Var(&f.backendOpts, "backend-opt", "backend-specific option key=value (repeatable)")
	fs.StringVar(&f.thinkDist, "think-dist", "", "stochastic pacing: lewis distribution for the inter-op gaps (negexp:0.5, selfsimilar, ...)")
	fs.IntVar(&f.warmup, "warmup", 0, "untimed warmup operations per client (needs -measured; COLDN for ocb)")
	fs.IntVar(&f.measured, "measured", 0, "sampled mix: measured operations per client, per sweep point (HOTN for ocb)")
	fs.BoolVar(&f.quick, "quick", false, "scaled-down geometry (seconds instead of minutes)")
	fs.Int64Var(&f.seed, "seed", 0, "seed offset applied to the preset (0 keeps it)")
}

// build resolves the parsed shared flags: it checks that exactly one
// scenario source is named, folds the shared flags into o (which arrives
// carrying the subcommand's own settings), builds the preset or loads
// the spec file, and prints the scenario header. The caller owns closing
// the scenario.
func (f *scenarioFlags) build(fs *flag.FlagSet, o scenarios.Options) (*scenarios.Scenario, error) {
	if (f.name == "") == (f.file == "") {
		fs.Usage()
		return nil, fmt.Errorf("need exactly one of -scenario or -scenario-file")
	}
	opts, err := backend.ParseOptions(f.backendOpts)
	if err != nil {
		return nil, err
	}
	o.Backend = f.backend
	o.BackendOptions = opts
	o.Quick = f.quick
	o.Seed = f.seed
	o.ThinkDist = f.thinkDist
	o.Warmup = f.warmup
	o.Measured = f.measured

	var sc *scenarios.Scenario
	if f.file != "" {
		sc, err = scenarios.LoadFile(f.file, o)
	} else {
		sc, err = scenarios.Build(f.name, o)
	}
	if err != nil {
		return nil, err
	}
	printHeader(sc)
	return sc, nil
}

// printHeader prints a built scenario's name, description and build notes.
func printHeader(sc *scenarios.Scenario) {
	fmt.Printf("scenario %s — %s\n", sc.Name, sc.Description)
	for _, note := range sc.Notes {
		fmt.Printf("  %s\n", note)
	}
	fmt.Println()
}

// runScenario implements the `ocb run` subcommand: build a scenario
// preset (or a JSON spec file) and execute it through the unified
// workload engine, printing one result table per phase.
func runScenario(args []string) error {
	fs := flag.NewFlagSet("ocb run", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: ocb run [-scenario name | -scenario-file spec.json] [flags]\n\n")
		fmt.Fprintf(fs.Output(), "scenario presets:\n")
		for _, name := range scenarios.List() {
			fmt.Fprintf(fs.Output(), "  %-11s %s\n", name, scenarios.Describe(name))
		}
		fmt.Fprintf(fs.Output(), "\nflags:\n")
		fs.PrintDefaults()
	}
	var shared scenarioFlags
	shared.declare(fs)
	clients := fs.Int("clients", 0, "CLIENTN: concurrent clients (0 keeps the preset default)")
	think := fs.Duration("think", 0, "THINK latency between operations (closed loop: each client sleeps it after every op)")
	rate := fs.Float64("rate", 0, "open-loop arrival rate target, ops/sec across all clients (latency from scheduled arrival; exclusive with -think)")
	tolerateErrors := fs.Bool("tolerate-errors", false, "count op failures as errors instead of aborting the run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sc, err := shared.build(fs, scenarios.Options{
		Clients:        *clients,
		Think:          *think,
		Rate:           *rate,
		TolerateErrors: *tolerateErrors,
	})
	if err != nil {
		return err
	}

	// The scenario owns its system under test; release it (files,
	// scratch directories) once the run is done.
	defer sc.Close()
	return runAndPrint(sc)
}

// runAndPrint runs every phase of sc, printing each phase's setup note and
// result table. An SLO violation is an error, so the command exits
// non-zero on it.
func runAndPrint(sc *scenarios.Scenario) error {
	results, err := sc.Run()
	if err != nil {
		return err
	}
	violated := 0
	for _, pr := range results {
		if pr.SetupNote != "" {
			fmt.Printf("%s\n\n", pr.SetupNote)
		}
		printResult(pr.Result)
		for _, v := range pr.Violations {
			violated++
			fmt.Printf("SLO VIOLATION [%s] %s\n", pr.Phase, v)
		}
	}
	if violated > 0 {
		// The violation error is what makes a scenario file with an "slo"
		// block a performance test: `ocb run` exits non-zero on it.
		return fmt.Errorf("%d SLO violation(s)", violated)
	}
	return nil
}

// printResult renders one engine result as the unified per-op table.
func printResult(r *workload.Result) {
	_ = report.ResultTable(r.Name, r).Render(os.Stdout)
}
