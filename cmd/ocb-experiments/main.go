// Command ocb-experiments regenerates every table and figure of the OCB
// paper's evaluation (Section 4), plus the ablations: every entry of
// exp.Experiments.
//
// Usage:
//
//	ocb-experiments [-quick] [-csv] [-seed N] [-backend name]
//	                [-backend-opt k=v]... [-run list] [experiment ...]
//
// -backend aims every experiment at a registered driver (default "paged");
// experiments needing a capability the driver lacks (physical relocation,
// mostly) print a skip line instead of failing.
//
// -run (or positional experiment names, e.g. `ocb-experiments compare`)
// selects a comma-separated subset of the experiments -list shows, or
// "all".
//
// `compare` is the cross-backend genericity table: the same workload seed
// aimed at every registered backend driver, one row per backend. `oo1`,
// `hypermodel` and `oo7` are the scenario presets of those names, run once
// and shown in the per-op result table `ocb run -scenario <name>` prints.
package main

import (
	_ "ocb/internal/backend/all"

	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"ocb/internal/backend"
	"ocb/internal/exp"
)

func main() {
	quick := flag.Bool("quick", false, "scaled-down geometry (seconds instead of minutes)")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned text")
	seed := flag.Int64("seed", 0, "seed offset applied to every experiment")
	run := flag.String("run", "all", "comma-separated experiment list (see -list)")
	list := flag.Bool("list", false, "list available experiments and exit")
	backendName := flag.String("backend", backend.DefaultName,
		fmt.Sprintf("system-under-test backend: %s", strings.Join(backend.List(), " | ")))
	var backendOpts backend.OptionFlags
	flag.Var(&backendOpts, "backend-opt",
		"backend-specific option key=value (repeatable), validated by the driver")
	flag.Parse()

	// Subcommand form: `ocb-experiments compare` (or any experiment name)
	// is shorthand for -run with that selection. Mixing it with an explicit
	// -run would silently drop one of the two selections, so reject it.
	if args := flag.Args(); len(args) > 0 {
		runSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "run" {
				runSet = true
			}
		})
		if runSet {
			fmt.Fprintf(os.Stderr, "ocb-experiments: both -run %q and positional selection %q given; use one\n",
				*run, strings.Join(args, ","))
			os.Exit(2)
		}
		*run = strings.Join(args, ",")
	}

	if *list {
		for _, e := range exp.Experiments {
			fmt.Printf("%-12s %s\n", e.Name, e.Desc)
		}
		return
	}

	known := map[string]bool{"all": true}
	for _, e := range exp.Experiments {
		known[e.Name] = true
	}
	selected := map[string]bool{}
	for _, name := range strings.Split(*run, ",") {
		name = strings.TrimSpace(name)
		if !known[name] {
			// Catches both typos and flags placed after a positional
			// experiment name (flag.Parse stops at the first positional
			// arg, so `compare -backend x` would silently drop -backend).
			fmt.Fprintf(os.Stderr, "ocb-experiments: unknown experiment %q (flags must precede experiment names; try -list)\n", name)
			os.Exit(2)
		}
		selected[name] = true
	}
	opts, err := backend.ParseOptions(backendOpts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ocb-experiments: %v\n", err)
		os.Exit(2)
	}
	cfg := exp.Config{Quick: *quick, Seed: *seed, Backend: *backendName, BackendOptions: opts}

	ran := 0
	for _, e := range exp.Experiments {
		if !selected["all"] && !selected[e.Name] {
			continue
		}
		ran++
		start := time.Now()
		tb, err := e.Run(cfg)
		if errors.Is(err, backend.ErrNotSupported) {
			// The selected backend lacks a capability this experiment
			// needs (physical relocation, mostly): report, move on.
			fmt.Printf("  [%s skipped on backend %q: %v]\n\n", e.Name, *backendName, err)
			continue
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "ocb-experiments: %s: %v\n", e.Name, err)
			os.Exit(1)
		}
		if *csv {
			fmt.Printf("# %s\n", tb.Title)
			if err := tb.CSV(os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "ocb-experiments: %v\n", err)
				os.Exit(1)
			}
			fmt.Println()
			continue
		}
		if err := tb.Render(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "ocb-experiments: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("  [%s in %s]\n\n", e.Name, time.Since(start).Round(time.Millisecond))
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "ocb-experiments: nothing selected by -run=%s (try -list)\n", *run)
		os.Exit(2)
	}
}
