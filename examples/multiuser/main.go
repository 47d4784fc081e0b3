// Multiuser demonstrates OCB's multi-client mode (CLIENTN, Section 3.1 —
// "almost unique" among the era's benchmarks) as a workload.Sweep of one
// OCB phase over the client count: several concurrent clients share one
// store and buffer, and the sharded store lets their transactions proceed
// in parallel instead of serializing on a global mutex. Each client pauses
// for a think time between transactions, as the paper's THINK parameter
// models interactive users; throughput therefore scales with the client
// count until either the store or the CPUs saturate.
package main

import (
	_ "ocb/internal/backend/all"

	"fmt"
	"log"
	"time"

	"ocb/internal/core"
	"ocb/internal/workload"
)

func main() {
	clients := []int{1, 2, 4, 8, 16}

	// Quick geometry: a 5000-object database under cache pressure,
	// generated for the largest client count so the store is sharded at
	// build time.
	p := core.DefaultParams()
	p.NO = 5000
	p.SupRef = 5000
	p.BufferPages = 96
	p.ClientN = clients[len(clients)-1]
	p.Think = 2 * time.Millisecond // interactive clients (THINK)

	db, err := core.Generate(p)
	if err != nil {
		log.Fatal(err)
	}

	// One phase spec, swept over the client grid: 50 transactions per
	// client, cold cache at every point.
	spec := core.NewRunner(db, nil).PhaseSpec("multiuser", 50, 2024)
	spec.ColdStart = true
	points, err := workload.Sweep(spec, workload.SweepOptions{Clients: clients})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("clients  tx     wall      tx/s    speedup  mean I/Os  p50 µs  p95 µs  p99 µs")
	fmt.Println("------------------------------------------------------------------------------")
	base := points[0].Result.Throughput // the 1-client row
	for _, pt := range points {
		r := pt.Result
		fmt.Printf("%6d  %4d  %8s  %7.0f  %6.2fx  %9.1f  %6.0f  %6.0f  %6.0f\n",
			pt.Clients, r.Executed, r.Duration.Round(time.Millisecond),
			r.Throughput, r.Throughput/base, r.MeanIOsPerOp(), r.P50(), r.P95(), r.P99())
	}
	fmt.Println()
	fmt.Println("identical per-client transaction streams at every point, cold cache")
	fmt.Println("per point. Per-transaction I/O attribution is approximate with")
	fmt.Println("concurrent clients; phase totals stay exact (see workload.Result docs).")
}
