package scenarios

import (
	"fmt"

	"ocb/internal/backend"
	"ocb/internal/club"
	"ocb/internal/cluster"
	"ocb/internal/core"
	"ocb/internal/dstc"
	"ocb/internal/oo1"
	"ocb/internal/workload"
)

// Clustering is the paper's clustering experiment (§3.3, Tables 4 and 5),
// written once: measure a pass, let the policy observe passes, reorganize,
// measure the same pass again. Every clustering figure in the repository
// — the Table 4/5 rows, the policy and DSTC ablations, the dstc preset —
// is a Clustering with its own pass factory.
type Clustering struct {
	// Backend is the system under test every pass runs against and the
	// reorganization rearranges.
	Backend backend.Backend
	// Policy observes the observation passes and reorganizes; nil measures
	// the unchanged layout twice (the no-clustering control).
	Policy cluster.Policy
	// Pass builds one pass of the workload: with observed set it runs
	// with Policy watching, otherwise unobserved. It is called once per
	// phase, in phase order, when the protocol's scenario is built. Every
	// pass runs from a cold cache.
	Pass func(observed bool, seed int64) *workload.Spec
	// Seed is the measured passes' seed: "before" and "after" replay the
	// same operations.
	Seed int64
	// ObserveSeeds seeds one observation pass each. Seeds other than
	// Seed hold the measured operations out of what the policy sees;
	// repeating Seed is CluB's stereotyped recurring workload.
	ObserveSeeds []int64
}

// ClusteringResult is one run of the clustering protocol.
type ClusteringResult struct {
	// Before and After are the measured pass's mean transaction I/Os per
	// operation, before and after the reorganization.
	Before, After float64
	// Gain is Before / After, the paper's gain factor (0 when After is 0).
	Gain float64
	// Reloc is the reorganization's physical cost, and ClusteringIOs the
	// disk I/Os charged to the clustering class while it ran — the
	// clustering overhead.
	Reloc         backend.RelocStats
	ClusteringIOs uint64
}

// Scenario returns the protocol's phases under the given name: "before"
// (unobserved, Seed), one "observe" per observation seed, and "after"
// (unobserved, Seed), whose Setup is the reorganization. On a backend
// without physical relocation the Setup reports a skip and "after"
// measures the unchanged layout.
func (c *Clustering) Scenario(name, description string) *Scenario {
	return c.scenario(name, description, new(ClusteringResult), new(error))
}

// Run runs the protocol and derives its result. Unlike a scenario run, a
// reorganization the backend cannot perform fails the run: a gain
// measured without one would be meaningless.
func (c *Clustering) Run() (*ClusteringResult, error) {
	res := new(ClusteringResult)
	var reorgErr error
	results, err := c.scenario("clustering", "", res, &reorgErr).Run()
	if err != nil {
		return nil, err
	}
	if reorgErr != nil {
		return nil, fmt.Errorf("reorganize: %w", reorgErr)
	}
	res.Before = results[0].Result.MeanIOsPerOp()
	res.After = results[len(results)-1].Result.MeanIOsPerOp()
	if res.After > 0 {
		res.Gain = res.Before / res.After
	}
	return res, nil
}

// scenario builds the phases; the reorganization records its cost in res
// and its error in reorgErr.
func (c *Clustering) scenario(name, description string, res *ClusteringResult, reorgErr *error) *Scenario {
	pass := func(phase string, observed bool, seed int64) *workload.Spec {
		spec := c.Pass(observed, seed)
		spec.Name = name + "-" + phase
		spec.ColdStart = true
		return spec
	}
	phases := []Phase{{Name: "before", Spec: pass("before", false, c.Seed)}}
	for _, seed := range c.ObserveSeeds {
		phases = append(phases, Phase{Name: "observe", Spec: pass("observe", true, seed)})
	}
	phases = append(phases, Phase{
		Name: "after",
		Setup: func() (string, error) {
			note, err := reorganize(c.Policy, c.Backend, res)
			*reorgErr = err
			return note, err
		},
		Spec: pass("after", false, c.Seed),
	})
	return &Scenario{Name: name, Description: description, Phases: phases}
}

// reorganize is the protocol's reorganization step, the untimed Setup of
// the phase that measures the new layout: it reorganizes b with policy
// (nil leaves the layout unchanged), records the relocation cost and the
// clustering I/Os the step charged in res, and notes what it did.
func reorganize(policy cluster.Policy, b backend.Backend, res *ClusteringResult) (string, error) {
	cl := b.DiskStats().ClusteringIOs()
	var err error
	res.Reloc, err = cluster.Reorganize(policy, b)
	res.ClusteringIOs = b.DiskStats().ClusteringIOs() - cl
	if err != nil {
		return "", err
	}
	if policy == nil {
		return "no clustering policy: layout unchanged", nil
	}
	return fmt.Sprintf("reorganized with %s: moved %d objects, %d pages read, %d written, %d clustering I/Os",
		policy.Name(), res.Reloc.ObjectsMoved, res.Reloc.PagesRead, res.Reloc.PagesWritten, res.ClusteringIOs), nil
}

// policies names every clustering policy once, in presentation order.
// "none" is the nil no-clustering control; sequential and byclass
// relocate the whole database, so they enumerate it.
var policies = []struct {
	name string
	new  func(db *core.Database) cluster.Policy
}{
	{"none", func(*core.Database) cluster.Policy { return nil }},
	{"sequential", func(db *core.Database) cluster.Policy { return &cluster.Sequential{Objects: db.AllOIDs} }},
	{"byclass", func(db *core.Database) cluster.Policy {
		return &cluster.ByClass{Objects: db.AllOIDs, Label: db.ClassOf}
	}},
	{"hot", func(*core.Database) cluster.Policy { return cluster.NewHot() }},
	{"greedy", func(*core.Database) cluster.Policy {
		g := cluster.NewGreedy(1 << 16)
		g.MinWeight = 2 // ignore links crossed only once
		return g
	}},
	{"dstc", func(*core.Database) cluster.Policy { return dstc.NewCluBStyle() }},
}

// PolicyNames lists the clustering policies NewPolicy builds, in order.
func PolicyNames() []string {
	out := make([]string, len(policies))
	for i, e := range policies {
		out[i] = e.name
	}
	return out
}

// NewPolicy returns the named clustering policy over db: nil for "none",
// an error naming the valid set for an unknown name.
func NewPolicy(name string, db *core.Database) (cluster.Policy, error) {
	for _, e := range policies {
		if e.name == name {
			return e.new(db), nil
		}
	}
	return nil, fmt.Errorf("scenarios: unknown clustering policy %q (valid: %v)", name, PolicyNames())
}

// OCBClustering is the protocol over an OCB database: measured passes run
// measN transactions per client drawn from the measured seed, observation
// passes obsN with the policy watching.
func OCBClustering(db *core.Database, policy cluster.Policy, obsN, measN int, seed int64, observeSeeds []int64) *Clustering {
	observe, measure := core.NewRunner(db, policy), core.NewRunner(db, nil)
	return &Clustering{
		Backend: db.Store,
		Policy:  policy,
		Pass: func(observed bool, seed int64) *workload.Spec {
			if observed {
				return observe.PhaseSpec("", obsN, seed)
			}
			return measure.PhaseSpec("", measN, seed)
		},
		Seed:         seed,
		ObserveSeeds: observeSeeds,
	}
}

// CluBClustering is DSTC-CluB's protocol over an OO1 database: the same
// fixed roots recur in every pass, observed Repeats times.
func CluBClustering(db *oo1.Database, p club.Params, policy cluster.Policy) *Clustering {
	p = p.WithDefaults()
	return &Clustering{
		Backend: db.Store,
		Policy:  policy,
		Pass: func(observed bool, _ int64) *workload.Spec {
			if observed {
				return club.Pass(db, p, policy)
			}
			return club.Pass(db, p, nil)
		},
		Seed:         p.Seed,
		ObserveSeeds: repeat(p.Seed, p.Repeats),
	}
}

// repeat returns n copies of seed.
func repeat(seed int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = seed
	}
	return out
}
