// Command ocbbench is the repository's performance benchmark: five named
// workloads driven through the public Go API of the packages under internal/,
// each reporting end-to-end metrics from untraced runs and per-layer metrics
// from one traced run and from probes of the layers' exported functions.
// See ../README.md.
//
//	ocbbench                                  every workload, a full report
//	ocbbench -out new.json                    ... and the result record
//	ocbbench -compare old.json new.json       two records, row by row
//	ocbbench -workload NAME -seed N -seconds S -trace 0|1
//	                                          one run, for BENCHMARK.json's driver
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	_ "ocb/internal/backend/all"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ocbbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "run this workload once and end with the driver's JSON line (default: all five)")
		seed    = fs.Int64("seed", 0, "offset added to the presets' own seeds")
		seconds = fs.Float64("seconds", 10, "length the measured phases are sized for; operation counts are proportional to it")
		trace   = fs.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer ones")
		runs    = fs.Int("runs", 3, "untraced repetitions per workload, without -workload")
		quick   = fs.Bool("quick", false, "smoke-test sizes: every path, no meaningful numbers")
		out     = fs.String("out", "", "write the result record to this file")
		compare = fs.Bool("compare", false, "compare two result records: -compare old.json new.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "ocbbench:", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two result records: old.json new.json"))
		}
		worse, err := compareFiles(stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if worse > 0 {
			return fail(fmt.Errorf("%d metric(s) worse than the bound allows", worse))
		}
		return 0
	}
	if fs.NArg() > 0 || *seconds <= 0 || *runs < 1 || *trace < 0 || *trace > 1 {
		return fail(fmt.Errorf("bad arguments; see -help"))
	}

	// The driver's protocol: one workload, one repetition. Set-up runs three
	// times so that setup_s is a median; the traced form needs no setup_s.
	pl := plan{seed: *seed, seconds: *seconds, quick: *quick, runs: *runs, setups: 1, traced: true}
	if pl.quick {
		pl.seconds = quickSeconds
	}
	selected := workloads
	if *name != "" {
		d := workloadByName(*name)
		if d == nil {
			return fail(fmt.Errorf("unknown workload %q", *name))
		}
		selected = []*workloadDef{d}
		pl.runs, pl.traced = 1, *trace == 1
		if !pl.traced {
			pl.setups = 3
		}
	}

	var probes map[string]float64
	if pl.traced {
		var err error
		if probes, err = runProbes(pl.quick); err != nil {
			return fail(err)
		}
	}
	rec := &record{Context: pl.context()}
	fmt.Fprintf(stdout, "ocbbench: commit %s, %s, GOMAXPROCS %d of %d CPUs, seed %d, phases sized for %g s\n",
		rec.Context.Commit, rec.Context.GoVersion, rec.Context.GOMAXPROCS, rec.Context.NumCPU, pl.seed, pl.seconds)
	correct := true
	for _, d := range selected {
		rep, err := d.run(pl, probes)
		if err != nil {
			return fail(err)
		}
		rep.print(stdout, rec.Context)
		rec.Workloads = append(rec.Workloads, rep)
		correct = correct && rep.correct()
	}
	if *out != "" {
		data, err := json.MarshalIndent(rec, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			return fail(err)
		}
	}
	if *name != "" {
		if err := json.NewEncoder(stdout).Encode(driverLine(rec.Workloads[0], pl.traced)); err != nil {
			return fail(err)
		}
	}
	if !correct {
		return fail(fmt.Errorf("a correctness check failed"))
	}
	return 0
}

// result is the line the driver of BENCHMARK.json reads last.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// driverLine reports the per-layer metrics of a traced run, and of an
// untraced one the end-to-end metrics that BENCHMARK.json bounds.
func driverLine(rep *workloadReport, traced bool) result {
	r := result{Correct: rep.correct(), Attempted: rep.Attempted, Failed: rep.Failed, Metrics: rep.PerLayer}
	if !traced {
		r.Metrics = make(map[string]value)
		for _, def := range endToEnd {
			if def.gated {
				r.Metrics[def.name] = value{Value: rep.EndToEnd[def.name].Median, Unit: def.unit}
			}
		}
	}
	return r
}
