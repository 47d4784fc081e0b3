package exp

import (
	"fmt"
	"time"

	"ocb/internal/backend"
	"ocb/internal/core"
	"ocb/internal/report"
	"ocb/internal/workload"
)

// scalabilityClients is the CLIENTN grid of the scalability sweep: powers
// of two through 16, the region where the paper's era-hardware arguments
// about multi-user mode play out.
var scalabilityClients = []int{1, 2, 4, 8, 16}

// Scalability runs the multi-client scalability sweep over one shared
// sharded store: a workload.Sweep of one OCB phase over CLIENTN in
// {1, 2, 4, 8, 16}, closed-loop think time, cold cache and the same
// per-client transaction streams at every point. It reports throughput,
// speedup versus one client and response-time quantiles. Unlike the A3
// ablation (which regenerates a database per row to show cache
// pollution), every row here shares one database, so the only variable is
// concurrency.
func Scalability(c Config) (*report.Table, error) {
	p := scalabilityParams(c)
	// Generate for the grid's largest client count: the store is sharded
	// at build time, so the multi-client points do not serialize on the
	// single-shard store a CLIENTN = 1 database gets.
	p.ClientN = scalabilityClients[len(scalabilityClients)-1]
	p.Think = 2 * time.Millisecond
	txPerClient := 200
	if c.Quick {
		txPerClient = 50
	}
	db, err := core.Generate(p)
	if err != nil {
		return nil, fmt.Errorf("scalability: %w", err)
	}
	defer backend.Shutdown(db.Store)
	spec := core.NewRunner(db, nil).PhaseSpec("scale", txPerClient, 8191+c.Seed)
	spec.ColdStart = true
	points, err := workload.Sweep(spec, workload.SweepOptions{Clients: scalabilityClients})
	if err != nil {
		return nil, fmt.Errorf("scalability: %w", err)
	}
	t := report.New("Scalability — CLIENTN sweep over one sharded store",
		"Clients", "Transactions", "Wall time", "Tx/s", "Speedup",
		"Mean I/Os per tx", "p50 µs", "p95 µs", "p99 µs")
	base := points[0].Result.Throughput // the 1-client row
	for _, pt := range points {
		r := pt.Result
		t.AddRow(report.Int(pt.Clients), report.I64(r.Executed),
			report.Dur(r.Duration), report.F1(r.Throughput), report.F2(r.Throughput/base),
			report.F1(r.MeanIOsPerOp()),
			report.F1(r.P50()), report.F1(r.P95()), report.F1(r.P99()))
	}
	t.AddNote("shared database generated at CLIENTN = %d (store sharded at build time), %s closed-loop think time per tx",
		p.ClientN, p.Think)
	t.AddNote("identical per-client streams and a cold cache at every point; speedup is tx/s vs 1 client")
	return t, nil
}

// scalabilityParams is the sweep geometry: the Table 3 database with the
// default four-type workload mix (the same recipe as the A3 ablation).
func scalabilityParams(c Config) core.Params {
	p := c.mimicParams()
	d := core.DefaultParams()
	p.PSet, p.PSimple, p.PHier, p.PStoch = d.PSet, d.PSimple, d.PHier, d.PStoch
	p.SetDepth, p.SimDepth, p.HieDepth, p.StoDepth = d.SetDepth, d.SimDepth, d.HieDepth, d.StoDepth
	return p
}
