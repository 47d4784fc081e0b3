package exp

import (
	"fmt"
	"runtime"

	"ocb/internal/backend"
	"ocb/internal/buffer"
	"ocb/internal/core"
	"ocb/internal/report"
	"ocb/internal/workload"
)

// clientsGrid is the CLIENTN grid of the clients experiment.
var clientsGrid = []int{1, 2, 4, 8, 16}

// clientsTxPerClient returns the per-client transaction count: enough for
// the one-client point to run at least 100 ms (10 ms at Quick) on a
// 2-CPU host, so the speedup column does not divide by a timer's noise.
func (c Config) clientsTxPerClient() int {
	if c.Quick {
		return 2000
	}
	return 15000
}

// Clients is the multi-client experiment: a workload.Sweep of one OCB
// phase over CLIENTN in {1, 2, 4, 8, 16} on one shared database (the
// Table 3 database with Table 2's default mix), closed loop with think
// time 0, a cold cache and the same per-client transaction streams at
// every point. It reports throughput, speedup versus one client,
// efficiency (speedup per usable CPU) and response-time quantiles.
func Clients(c Config) (*report.Table, error) {
	p := c.mixedParams()
	txPerClient := c.clientsTxPerClient()
	db, err := core.Generate(p)
	if err != nil {
		return nil, fmt.Errorf("clients: %w", err)
	}
	defer backend.Shutdown(db.Store)
	spec := core.NewRunner(db, nil).PhaseSpec("clients", txPerClient, 8191+c.Seed)
	spec.ColdStart = true
	points, err := workload.Sweep(spec, workload.SweepOptions{Clients: clientsGrid})
	if err != nil {
		return nil, fmt.Errorf("clients: %w", err)
	}
	procs := runtime.GOMAXPROCS(0)
	t := report.New("Clients — CLIENTN sweep over one shared database",
		"Clients", "Transactions", "Wall time", "Tx/s", "Speedup", "Efficiency",
		"Mean I/Os per tx", "p50 µs", "p95 µs", "p99 µs")
	base := points[0].Result.Throughput // the 1-client row
	for _, pt := range points {
		r := pt.Result
		speedup := r.Throughput / base
		t.AddRow(report.Int(pt.Clients), report.I64(r.Executed),
			report.Dur(r.Duration), report.F1(r.Throughput),
			report.F2(speedup), report.F2(speedup/float64(min(pt.Clients, procs))),
			report.F1(r.MeanIOsPerOp()),
			report.F1(r.P50()), report.F1(r.P95()), report.F1(r.P99()))
	}
	pool := fmt.Sprintf("backend %q has no page buffer", c.backendName())
	if s, ok := db.Store.(interface{ Pool() *buffer.Sharded }); ok {
		pool = fmt.Sprintf("every client faults into one LRU buffer of %d frames", s.Pool().Capacity())
	}
	t.AddNote("think time 0 (closed loop), GOMAXPROCS = %d, %d tx per client; %s",
		procs, txPerClient, pool)
	t.AddNote("identical per-client streams and a cold cache at every point; speedup is tx/s vs 1 client, efficiency is speedup / min(clients, GOMAXPROCS)")
	t.AddNote("mean I/Os per tx are approximate at CLIENTN > 1: concurrent clients fault into each other's windows (phase totals are exact)")
	return t, nil
}
