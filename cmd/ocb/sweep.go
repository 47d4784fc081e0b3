package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"ocb/internal/report"
	"ocb/internal/scenarios"
	"ocb/internal/workload"
)

// sweepScenario implements the `ocb sweep` subcommand: build a scenario
// once (at the largest client count of the grid, so per-client suite
// state exists for every point) and drive its final phase across a
// CLIENTN × arrival-rate grid through workload.Sweep — or, with
// -search-p95, binary-search the highest sustainable rate with
// workload.FindMaxRate. One row per point either way: the
// latency-under-load curve the capacity question needs.
func sweepScenario(args []string) error {
	fs := flag.NewFlagSet("ocb sweep", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: ocb sweep [-scenario name | -scenario-file spec.json] -clients 1,2,4 [-rates 500,1000] [flags]\n")
		fmt.Fprintf(fs.Output(), "       ocb sweep -scenario oo1 -search-p95 5000 -rate-max 20000 [flags]\n\nflags:\n")
		fs.PrintDefaults()
	}
	var shared scenarioFlags
	shared.declare(fs)
	clientList := fs.String("clients", "", "comma-separated client counts to sweep (default: the scenario's own)")
	rateList := fs.String("rates", "", "comma-separated arrival-rate targets in ops/sec across all clients")
	coldStart := fs.Bool("coldstart", false, "drop the backend cache before every point")
	searchP95 := fs.Float64("search-p95", 0, "rate-search mode: find the max rate with P95 at or under this bound (µs)")
	rateMin := fs.Float64("rate-min", 0, "rate-search bracket floor, ops/sec (default rate-max/64)")
	rateMax := fs.Float64("rate-max", 0, "rate-search bracket ceiling, ops/sec (required with -search-p95)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	clientGrid, err := parseIntList(*clientList)
	if err != nil {
		return fmt.Errorf("-clients: %w", err)
	}
	rateGrid, err := parseFloatList(*rateList)
	if err != nil {
		return fmt.Errorf("-rates: %w", err)
	}
	if *searchP95 > 0 && len(rateGrid) > 0 {
		return fmt.Errorf("-search-p95 and -rates are exclusive: a search picks its own rates")
	}
	// Build at the grid's largest client count: suites that pre-size
	// per-client state at build time (oo1's insert streams) must have a
	// slot for every client any point will run.
	maxClients := 0
	for _, n := range clientGrid {
		if n > maxClients {
			maxClients = n
		}
	}
	sc, err := shared.build(fs, scenarios.Options{Clients: maxClients})
	if err != nil {
		return err
	}
	defer sc.Close()

	// The sweep drives the final phase (the measured one by convention:
	// warm for ocb, bench for the suites). Earlier phases run once, in
	// protocol order — dstc's observe pass and reorganization, ocb's cold
	// run — so the swept phase sees the state the protocol intends.
	for _, ph := range sc.Phases[:len(sc.Phases)-1] {
		if ph.Setup != nil {
			note, err := ph.Setup()
			if err != nil {
				return fmt.Errorf("phase %s setup: %w", ph.Name, err)
			}
			fmt.Printf("%s\n\n", note)
		}
		if _, err := workload.Run(ph.Spec); err != nil {
			return fmt.Errorf("phase %s (priming): %w", ph.Name, err)
		}
	}
	last := sc.Phases[len(sc.Phases)-1]
	if last.Setup != nil {
		note, err := last.Setup()
		if err != nil {
			return fmt.Errorf("phase %s setup: %w", last.Name, err)
		}
		fmt.Printf("%s\n\n", note)
	}
	spec := last.Spec
	if *coldStart {
		spec.ColdStart = true
	}

	if *searchP95 > 0 {
		return runRateSearch(sc.Name, spec, *searchP95, *rateMin, *rateMax)
	}

	points, err := workload.Sweep(spec, workload.SweepOptions{
		Clients: clientGrid,
		Rates:   rateGrid,
	})
	if err != nil {
		return err
	}
	t := report.New(fmt.Sprintf("%s — latency under load (phase %s)", sc.Name, last.Name),
		"Clients", "Target ops/s", "Achieved ops/s", "P50 µs", "P95 µs", "P99 µs", "Mean I/Os", "Errors", "SLO")
	violated := 0
	for _, pt := range points {
		target := "-"
		if pt.Rate > 0 {
			target = report.F1(pt.Rate)
		}
		slo := "-"
		if spec.SLO != nil {
			slo = "pass"
			if len(pt.Violations) > 0 {
				violated++
				slo = fmt.Sprintf("FAIL (%d)", len(pt.Violations))
			}
		}
		r := pt.Result
		t.AddRow(report.Int(pt.Clients), target, report.F1(r.Throughput),
			report.F1(r.P50()), report.F1(r.P95()), report.F1(r.P99()),
			report.F1(r.MeanIOsPerOp()), report.I64(r.Total.Errors), slo)
	}
	t.AddNote("one engine run per row, same seed per point: op streams depend on the client count, not the grid position")
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	if violated > 0 {
		return fmt.Errorf("%d sweep point(s) violated the SLO", violated)
	}
	return nil
}

// runRateSearch drives workload.FindMaxRate over the phase spec and
// prints the probe trajectory plus the verdict.
func runRateSearch(name string, spec *workload.Spec, p95Bound, rateMin, rateMax float64) error {
	if rateMax <= 0 {
		return fmt.Errorf("-search-p95 needs -rate-max (the bracket ceiling)")
	}
	res, err := workload.FindMaxRate(spec, workload.RateSearch{
		P95BoundUs: p95Bound,
		MinRate:    rateMin,
		MaxRate:    rateMax,
	})
	if err != nil {
		return err
	}
	t := report.New(fmt.Sprintf("%s — max sustainable rate (P95 <= %.0fµs)", name, p95Bound),
		"Target ops/s", "Achieved ops/s", "P95 µs", "Sustained", "Verdict")
	for _, p := range res.Probes {
		verdict := "fail"
		if p.Pass {
			verdict = "pass"
		}
		t.AddRow(report.F1(p.Rate), report.F1(p.Result.Throughput), report.F1(p.P95),
			fmt.Sprintf("%v", p.Sustained), verdict)
	}
	if res.MaxRate > 0 {
		t.AddNote("max sustainable rate: %.1f ops/s", res.MaxRate)
	} else {
		t.AddNote("no sustainable rate found: even the bracket floor failed the bound")
	}
	return t.Render(os.Stdout)
}

// parseIntList parses a comma-separated int list ("1,2,4").
func parseIntList(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("bad count %q", f)
		}
		out = append(out, v)
	}
	return out, nil
}

// parseFloatList parses a comma-separated float list ("500,1000.5").
func parseFloatList(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	var out []float64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, fmt.Errorf("bad rate %q", f)
		}
		out = append(out, v)
	}
	return out, nil
}
