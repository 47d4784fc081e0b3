// Package exp is the experiment harness: one runner per table and figure
// of the paper's evaluation (Section 4), plus the ablations DESIGN.md
// catalogs. The cmd/ocb-experiments tool and the root benchmark suite are
// thin wrappers around this package.
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
)

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
// OCB row and, with the default workload mix, by Table 5.
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

// heldOutSeeds are the observation seeds of OCB's measurement protocol:
// the policy observes three passes drawn from fresh seeds, so it is never
// shown the transactions measured on seed.
func heldOutSeeds(seed int64) []int64 { return []int64{seed + 1000, seed + 1001, seed + 1002} }
