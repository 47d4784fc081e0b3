package exp

import (
	"fmt"
	"time"

	"ocb/internal/backend"
	"ocb/internal/core"
	"ocb/internal/dstc"
	"ocb/internal/report"
	"ocb/internal/scenarios"
	"ocb/internal/sim"
	"ocb/internal/workload"
)

// SimulatedTestbed reproduces ablation A8 — the paper's Section 5
// simulation plan (the QNAP2 port): the workload executes for real against
// the store, its exact per-transaction object/I-O demands feed a
// discrete-event queueing model of the 1992 testbed (one CPU, one disk,
// 15ms per page I/O), and the simulated response times are reported before
// and after DSTC reclustering. This is the "platform independence" story:
// wall-clock on modern hardware is meaningless against the paper, but
// simulated seconds on modeled hardware are comparable.
func SimulatedTestbed(c Config) (*report.Table, error) {
	p := c.mimicParams()
	n := 60
	if c.Quick {
		n = 30
	}
	db, err := core.Generate(p)
	if err != nil {
		return nil, err
	}
	defer backend.Shutdown(db.Store)

	const seed = 999331
	proto := scenarios.OCBClustering(db, dstc.NewCluBStyle(), n, n, seed, heldOutSeeds(seed))
	// The engine hands each measured transaction's demand to the hook:
	// demands[0] is the before pass, demands[1] the after pass.
	var demands [][]sim.Demand
	pass := proto.Pass
	proto.Pass = func(observed bool, seed int64) *workload.Spec {
		spec := pass(observed, seed)
		if !observed {
			i := len(demands)
			demands = append(demands, make([]sim.Demand, 0, n))
			spec.OnOp = func(_, objects int, ios uint64, _ time.Duration) {
				demands[i] = append(demands[i], sim.Demand{Objects: objects, IOs: ios})
			}
		}
		return spec
	}
	if _, err := proto.Run(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}

	hw := sim.Params{DiskServiceTime: 15 * time.Millisecond, CPUPerObject: 40 * time.Microsecond}
	t := report.New("A8 — simulated 1992 testbed (Section 5 simulation plan)",
		"Placement", "Sim. mean response (s)", "Sim. makespan (s)", "Disk util.", "CPU util.")
	for _, row := range []struct {
		name    string
		demands []sim.Demand
	}{{"before reclustering", demands[0]}, {"after reclustering", demands[1]}} {
		res, err := sim.Simulate(hw, [][]sim.Demand{row.demands})
		if err != nil {
			return nil, err
		}
		t.AddRow(row.name,
			fmt.Sprintf("%.3f", res.Response.Mean()),
			fmt.Sprintf("%.2f", res.Makespan.Seconds()),
			report.F2(res.DiskUtilization()), report.F2(res.CPUUtilization()))
	}
	t.AddNote("hardware model: 15ms per page I/O, 40µs CPU per object (SPARC/ELC-class)")
	t.AddNote("demands measured from the real store, timing fully simulated")
	return t, nil
}
