// Package exp is the experiment harness: one runner per table and figure
// of the paper's evaluation (Section 4), plus the ablations, listed once
// in Experiments. The cmd/ocb-experiments tool and the root benchmark
// suite are thin wrappers around that list.
//
// Every experiment honours a Config with a Quick switch that scales the
// geometry down (for CI and testing.B) while preserving the regime each
// result depends on: reference windows spanning several pages and buffers
// smaller than the database. Full-scale runs reproduce the paper's setup:
// 20000-object databases over 4 KB pages with a memory budget around 40%
// of the database, mirroring the 8 MB RAM / ~15 MB database testbed.
package exp

import (
	"ocb/internal/backend"
	"ocb/internal/core"
	"ocb/internal/oo1"
	"ocb/internal/report"
)

// Experiment is one entry of the registry: the name cmd/ocb-experiments
// selects it by, a one-line description and the runner.
type Experiment struct {
	Name string
	Desc string
	Run  func(Config) (*report.Table, error)
}

// Experiments is every experiment, in presentation order.
var Experiments = []Experiment{
	{"table1", "OCB database parameters (paper Table 1)", Table1},
	{"table2", "OCB workload parameters (paper Table 2)", Table2},
	{"table3", "OCB parameters approximating DSTC-CluB (paper Table 3)", Table3},
	{"fig4", "database creation time vs size (paper Figure 4)", Fig4},
	{"table4", "DSTC via DSTC-CluB vs OCB (paper Table 4)", Table4},
	{"table5", "DSTC under the default mixed workload (paper Table 5)", Table5},
	{"genericity", "OO1 traversal shape from OCB parameters", GenericityCheck},
	{"compare", "cross-backend comparison: same workload seed, one row per registered backend", Genericity},
	{"types", "per-transaction-type metrics", TypeBreakdown},
	{"policies", "A1: clustering policy shoot-out", Policies},
	{"buffer", "A2: buffer size sweep", BufferSweep},
	{"clients", "CLIENTN sweep at think time 0 over one shared database", Clients},
	{"scenarios", "every scenario preset through the unified workload engine", Scenarios},
	{"load", "latency under load: open-loop arrival-rate ladder + max sustainable rate per local backend", Load},
	{"reverse", "A4: forward vs reversed traversals", Reverse},
	{"dstc-sens", "A5: DSTC parameter sensitivity", DSTCSensitivity},
	{"generic", "A6: fully generic workload (Section 5 extension)", GenericWorkload},
	{"rootskew", "A7: transaction-root distribution skew", RootSkew},
	{"oo1", "OO1 benchmark suite (the oo1 scenario preset)", OO1Suite},
	{"hypermodel", "HyperModel benchmark suite (the hypermodel scenario preset)", HyperModelSuite},
	{"oo7", "OO7 benchmark suite (the oo7 scenario preset)", OO7Suite},
}

// Config selects the experiment scale and the system under test.
type Config struct {
	// Quick shrinks every experiment to seconds for tests and benches.
	Quick bool
	// Seed offsets all experiment seeds (0 keeps the defaults).
	Seed int64
	// Backend selects the system-under-test driver ("" = "paged").
	// Experiments needing a capability the backend lacks (physical
	// relocation, mostly) fail with backend.ErrNotSupported, which
	// cmd/ocb-experiments reports as a skip.
	Backend string
	// BackendOptions are driver-specific key=value settings, validated by
	// the driver at open.
	BackendOptions map[string]string
}

// backendName returns the effective driver name ("" opens the default).
func (c Config) backendName() string {
	if c.Backend == "" {
		return backend.DefaultName
	}
	return c.Backend
}

// clubOO1Params returns the OO1 geometry behind the Table 4 CluB row.
func (c Config) clubOO1Params() oo1.Params {
	p := oo1.DefaultParams()
	p.BufferPages = 512
	if c.Quick {
		p.NumParts = 8000
		p.RefZone = 160
		p.TraversalDepth = 5
		p.BufferPages = 64
	}
	p.Seed += c.Seed
	p.Backend = c.Backend
	p.BackendOptions = c.BackendOptions
	return p
}

// mimicParams returns the OCB Table 3 parameterization used by the Table 4
// OCB row and the single-type ablations.
func (c Config) mimicParams() core.Params {
	p := core.CluBParams()
	// 40% of the ~440-page database, the paper's memory-pressure ratio.
	p.BufferPages = 176
	if c.Quick {
		p.NO = 6000
		p.SupRef = 6000
		p.BufferPages = 52
	}
	p.Seed += c.Seed
	p.Backend = c.Backend
	p.BackendOptions = c.BackendOptions
	return p
}

// mixedParams returns the Table 3 database with Table 2's default
// four-type workload mix: the geometry of Table 5, the per-type breakdown
// and the clients sweep.
func (c Config) mixedParams() core.Params {
	p := c.mimicParams()
	d := core.DefaultParams()
	p.PSet, p.PSimple, p.PHier, p.PStoch = d.PSet, d.PSimple, d.PHier, d.PStoch
	p.SetDepth, p.SimDepth, p.HieDepth, p.StoDepth = d.SetDepth, d.SimDepth, d.HieDepth, d.StoDepth
	return p
}

// heldOutSeeds are the observation seeds of OCB's measurement protocol:
// the policy observes three passes drawn from fresh seeds, so it is never
// shown the transactions measured on seed.
func heldOutSeeds(seed int64) []int64 { return []int64{seed + 1000, seed + 1001, seed + 1002} }
