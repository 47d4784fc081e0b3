// Simulation demonstrates the paper's Section 5 plan of porting OCB into
// a simulation model (the authors used the QNAP2 queueing tool): the
// benchmark executes for real against the store, and its exact
// per-transaction demands — objects visited (CPU) and page I/Os (disk) —
// drive a discrete-event queueing model of the 1992 testbed. The output
// is platform-independent: simulated seconds on modeled hardware, not
// wall-clock on whatever machine runs this.
package main

import (
	_ "ocb/internal/backend/all"

	"fmt"
	"log"
	"time"

	"ocb/internal/core"
	"ocb/internal/dstc"
	"ocb/internal/scenarios"
	"ocb/internal/sim"
	"ocb/internal/workload"
)

func main() {
	p := core.CluBParams()
	p.NO = 6000
	p.SupRef = 6000
	p.BufferPages = 52

	db, err := core.Generate(p)
	if err != nil {
		log.Fatal(err)
	}

	// Capture the workload's demands before and after DSTC reclustering:
	// the engine hands each measured transaction's demand to the hook,
	// demands[0] for the before pass and demands[1] for the after pass.
	proto := scenarios.OCBClustering(db, dstc.NewCluBStyle(), 60, 40, 4242, []int64{100, 101, 102})
	var demands [][]sim.Demand
	pass := proto.Pass
	proto.Pass = func(observed bool, seed int64) *workload.Spec {
		spec := pass(observed, seed)
		if !observed {
			i := len(demands)
			demands = append(demands, nil)
			spec.OnOp = func(_, objects int, ios uint64, _ time.Duration) {
				demands[i] = append(demands[i], sim.Demand{Objects: objects, IOs: ios})
			}
		}
		return spec
	}
	if _, err := proto.Run(); err != nil {
		log.Fatal(err)
	}

	// Two hardware models: the paper's 1992 workstation and a 2000s-era
	// box — same demands, different simulated clocks.
	for _, hw := range []struct {
		name string
		p    sim.Params
	}{
		{"SPARC/ELC-class (1992)", sim.Params{DiskServiceTime: 15 * time.Millisecond, CPUPerObject: 40 * time.Microsecond}},
		{"commodity PC (2002)", sim.Params{DiskServiceTime: 5 * time.Millisecond, CPUPerObject: 2 * time.Microsecond}},
	} {
		fmt.Printf("%s:\n", hw.name)
		for _, run := range []struct {
			name    string
			demands []sim.Demand
		}{{"before reclustering", demands[0]}, {"after reclustering", demands[1]}} {
			res, err := sim.Simulate(hw.p, [][]sim.Demand{run.demands})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %-20s mean response %7.3fs   disk util %.2f   throughput %.2f tx/s\n",
				run.name, res.Response.Mean(), res.DiskUtilization(), res.Throughput)
		}
	}
	fmt.Println("\ndemands are measured from the real store; only time is simulated —")
	fmt.Println("the paper's 'platform independence' argument for simulation (§5).")
}
