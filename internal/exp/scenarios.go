package exp

import (
	"fmt"

	"ocb/internal/report"
	"ocb/internal/scenarios"
)

// runScenario builds the named preset on the configured backend, runs its
// phases and closes it again on every path: a scenario owns its system
// under test (files, a scratch directory and a group-commit goroutine on
// waldisk), and the results and notes outlive it.
func (c Config) runScenario(name string) (*scenarios.Scenario, []scenarios.PhaseResult, error) {
	sc, err := scenarios.Build(name, scenarios.Options{
		Backend:        c.Backend,
		BackendOptions: c.BackendOptions,
		Quick:          c.Quick,
		Seed:           c.Seed,
	})
	if err != nil {
		return nil, nil, err
	}
	results, err := sc.Run()
	if cerr := sc.Close(); err == nil {
		err = cerr
	}
	return sc, results, err
}

// Scenarios runs every scenario preset through the unified workload
// engine on the configured backend — the cross-suite view of the
// genericity claim: one engine, five benchmarks, one row per phase.
// Capability-gated steps (DSTC's reorganization on backends without
// physical relocation) surface in the skip column instead of failing.
//
// Exposed as the `scenarios` experiment of cmd/ocb-experiments.
func Scenarios(c Config) (*report.Table, error) {
	t := report.New(fmt.Sprintf("Scenarios — every preset through the unified workload engine (backend %q)", c.backendName()),
		"Scenario", "Phase", "Ops", "Ops/s", "Mean µs", "P95 µs", "Mean I/Os per op", "Skips")
	for _, name := range scenarios.List() {
		_, results, err := c.runScenario(name)
		if err != nil {
			return nil, fmt.Errorf("scenarios %s: %w", name, err)
		}
		for _, pr := range results {
			skips := len(pr.Result.Skips)
			if pr.SetupSkipped {
				skips++
			}
			t.AddRow(name, pr.Phase, report.I64(pr.Result.Executed),
				report.F1(pr.Result.Throughput), report.F1(pr.Result.Total.Response.Mean()),
				report.F1(pr.Result.P95()), report.F1(pr.Result.MeanIOsPerOp()), report.Int(skips))
		}
	}
	t.AddNote("one workload engine behind every row; suites contribute ops and build phases only")
	return t, nil
}

// suite is a related-work suite experiment: the scenario preset of that
// name — a single fixed-program phase — shown in the per-op result table,
// so `ocb-experiments oo1` prints the rows `ocb run -scenario oo1` does.
func suite(c Config, name string) (*report.Table, error) {
	sc, results, err := c.runScenario(name)
	if err != nil {
		return nil, err
	}
	t := report.ResultTable(sc.Description, results[0].Result)
	for _, note := range sc.Notes {
		t.AddNote("%s", note)
	}
	return t, nil
}

// OO1Suite runs the OO1 benchmark (Section 2.1).
func OO1Suite(c Config) (*report.Table, error) { return suite(c, "oo1") }

// HyperModelSuite runs the 20 HyperModel operations under the
// setup/cold/warm protocol (Section 2.2).
func HyperModelSuite(c Config) (*report.Table, error) { return suite(c, "hypermodel") }

// OO7Suite runs the OO7 traversals, queries and structural round trip
// (Section 2.3).
func OO7Suite(c Config) (*report.Table, error) { return suite(c, "oo7") }
