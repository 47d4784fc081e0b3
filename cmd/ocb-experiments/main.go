// Command ocb-experiments regenerates every table and figure of the OCB
// paper's evaluation (Section 4), plus the ablations catalogued in
// DESIGN.md.
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
// selects a comma-separated subset of:
//
//	table1 table2 table3 fig4 table4 table5 genericity compare types
//	policies buffer clients scale scenarios load reverse dstc-sens oo1
//	hypermodel oo7 all
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
	"ocb/internal/report"
)

var experiments = []struct {
	name string
	desc string
	run  func(exp.Config) (*report.Table, error)
}{
	{"table1", "OCB database parameters (paper Table 1)", exp.Table1},
	{"table2", "OCB workload parameters (paper Table 2)", exp.Table2},
	{"table3", "OCB parameters approximating DSTC-CluB (paper Table 3)", exp.Table3},
	{"fig4", "database creation time vs size (paper Figure 4)", exp.Fig4},
	{"table4", "DSTC via DSTC-CluB vs OCB (paper Table 4)", exp.Table4},
	{"table5", "DSTC under the default mixed workload (paper Table 5)", exp.Table5},
	{"genericity", "OO1 traversal shape from OCB parameters", exp.GenericityCheck},
	{"compare", "cross-backend comparison: same workload seed, one row per registered backend", exp.Genericity},
	{"types", "per-transaction-type metrics", exp.TypeBreakdown},
	{"policies", "A1: clustering policy shoot-out", exp.Policies},
	{"buffer", "A2: buffer size sweep", exp.BufferSweep},
	{"clients", "A3: multi-client scaling", exp.MultiClient},
	{"scale", "multi-client scalability sweep (sharded store, shared database)", exp.Scalability},
	{"scenarios", "every scenario preset through the unified workload engine", exp.Scenarios},
	{"load", "latency under load: open-loop arrival-rate ladder + max sustainable rate per local backend", exp.Load},
	{"reverse", "A4: forward vs reversed traversals", exp.Reverse},
	{"dstc-sens", "A5: DSTC parameter sensitivity", exp.DSTCSensitivity},
	{"generic", "A6: fully generic workload (Section 5 extension)", exp.GenericWorkload},
	{"rootskew", "A7: transaction-root distribution skew", exp.RootSkew},
	{"oo1", "OO1 benchmark suite (the oo1 scenario preset)", exp.OO1Suite},
	{"hypermodel", "HyperModel benchmark suite (the hypermodel scenario preset)", exp.HyperModelSuite},
	{"oo7", "OO7 benchmark suite (the oo7 scenario preset)", exp.OO7Suite},
}

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
		for _, e := range experiments {
			fmt.Printf("%-12s %s\n", e.name, e.desc)
		}
		return
	}

	known := map[string]bool{"all": true}
	for _, e := range experiments {
		known[e.name] = true
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
	for _, e := range experiments {
		if !selected["all"] && !selected[e.name] {
			continue
		}
		ran++
		start := time.Now()
		tb, err := e.run(cfg)
		if errors.Is(err, backend.ErrNotSupported) {
			// The selected backend lacks a capability this experiment
			// needs (physical relocation, mostly): report, move on.
			fmt.Printf("  [%s skipped on backend %q: %v]\n\n", e.name, *backendName, err)
			continue
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "ocb-experiments: %s: %v\n", e.name, err)
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
		fmt.Printf("  [%s in %s]\n\n", e.name, time.Since(start).Round(time.Millisecond))
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "ocb-experiments: nothing selected by -run=%s (try -list)\n", *run)
		os.Exit(2)
	}
}
