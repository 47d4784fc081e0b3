// Quickstart: generate a small OCB database, run the cold/warm protocol,
// and print the paper's metrics. This is the smallest end-to-end use of
// the library.
package main

import (
	_ "ocb/internal/backend/all"

	"fmt"
	"log"
	"time"

	"ocb/internal/core"
	"ocb/internal/scenarios"
)

func main() {
	// Start from the paper's defaults (Table 1 + Table 2) and shrink the
	// object count so the example runs in about a second.
	p := core.DefaultParams()
	p.NO = 5000
	p.SupRef = 5000
	p.ColdN = 200
	p.HotN = 500
	p.BufferPages = 128

	start := time.Now()
	sc, err := scenarios.OCB(p, "none")
	if err != nil {
		log.Fatal(err)
	}
	defer sc.Close()
	store := sc.Phases[0].Spec.Backend
	st := store.Stats()
	fmt.Printf("generated %d objects in %d classes in %s (%d pages)\n",
		st.Objects, p.NC, time.Since(start).Round(1e6), st.Pages)

	results, err := sc.Run()
	if err != nil {
		log.Fatal(err)
	}
	for _, pr := range results {
		phase := pr.Result
		fmt.Printf("\n%s run: %d transactions in %s\n",
			phase.Name, phase.Executed, phase.Duration.Round(1e6))
		fmt.Printf("  mean I/Os per transaction:    %.1f\n", phase.MeanIOsPerOp())
		fmt.Printf("  mean objects per transaction: %.1f\n", phase.Total.Objects.Mean())
		for i := range phase.PerOp {
			tm := &phase.PerOp[i]
			fmt.Printf("  %-11s %5d tx, %.1f objects, %.1f I/Os\n",
				tm.Name, tm.Count, tm.Objects.Mean(), tm.IOs.Mean())
		}
	}

	st = store.Stats()
	fmt.Printf("\nbuffer hit ratio: %.2f, total I/Os: %d\n",
		st.Pool.HitRatio(), st.Disk.Total())
}
