// Package club implements DSTC-CluB, the "DSTC Clustering Benchmark" of
// Bullat & Schneider (ECOOP '96) that the OCB paper uses as its external
// reference point in Table 4.
//
// DSTC-CluB is derived from OO1: it runs OO1's depth-first traversal — its
// single transaction type — over the OO1 parts/connections database, and
// measures the number of transaction I/Os before and after the DSTC
// algorithm reorganizes the database. The headline figure is the gain
// factor (I/Os before reclustering / I/Os after).
//
// Protocol. CluB is a *clustering* benchmark: its premise is a recurring,
// stereotyped workload that the dynamic clustering algorithm observes and
// then accelerates. The protocol is therefore:
//
//  1. draw Roots random traversal roots;
//  2. run the traversals from those roots Repeats times (cold cache per
//     pass) with the policy observing; the first pass is the "before"
//     measurement;
//  3. trigger the policy's physical reorganization;
//  4. replay the same traversals from a cold cache: the "after"
//     measurement.
//
// The paper's measurements on Texas/DSTC: 66 I/Os before, 5 after
// (gain 13.2) with CluB; OCB parameterized to approximate CluB's database
// (Table 3) reported 61 -> 7 (gain 8.71); OCB with the default mixed
// workload reported 31 -> 12 (gain 2.58, Table 5). As the OCB authors
// observe, CluB's single-transaction workload is exactly the regime that
// flatters DSTC; OCB's richer workloads blunt it.
package club

import (
	"fmt"
	"time"

	"ocb/internal/backend"
	"ocb/internal/cluster"
	"ocb/internal/lewis"
	"ocb/internal/oo1"
	"ocb/internal/workload"
)

// Params configures a DSTC-CluB run.
type Params struct {
	// OO1 sizes the underlying parts/connections database.
	OO1 oo1.Params
	// Roots is the number of distinct traversal roots in the recurring
	// workload. Default 10.
	Roots int
	// Repeats is how many times the workload recurs during the observation
	// phase. Default 3.
	Repeats int
	// Seed drives root selection (the same roots replay in both phases).
	Seed int64
}

// DefaultParams returns the canonical CluB configuration over the default
// OO1 database.
func DefaultParams() Params {
	return Params{
		OO1:     oo1.DefaultParams(),
		Roots:   10,
		Repeats: 3,
		Seed:    1996, // ECOOP '96
	}
}

func (p Params) withDefaults() Params {
	if p.Roots <= 0 {
		p.Roots = 10
	}
	if p.Repeats <= 0 {
		p.Repeats = 3
	}
	return p
}

// Result reports one full CluB protocol execution.
type Result struct {
	// IOsBefore and IOsAfter are mean transaction I/Os per traversal,
	// before and after reclustering.
	IOsBefore, IOsAfter float64
	// Gain is IOsBefore / IOsAfter, the paper's gain factor.
	Gain float64
	// Reloc is the physical reorganization cost (clustering overhead).
	Reloc backend.RelocStats
	// ClusteringIOs is the total clustering-overhead I/O charged.
	ClusteringIOs uint64
	// GenTime is the database creation time.
	GenTime time.Duration
}

// Run executes the CluB protocol with the given clustering policy
// (classically DSTC) over a freshly generated OO1 database, which it
// releases before returning (a durable store holds files).
func Run(p Params, policy cluster.Policy) (*Result, error) {
	db, err := oo1.Generate(p.OO1)
	if err != nil {
		return nil, err
	}
	defer backend.Shutdown(db.Store)
	return RunOn(db, p, policy)
}

// Phases expresses the CluB protocol as unified workload-engine specs:
// an observation phase whose ops are whole recurring passes ("before" is
// the first, cold-measured pass; "observe" the remaining recurrences, all
// watched by the policy), a reorganization step, and a replay phase
// ("after": the same roots from a cold cache, unobserved). Each pass's
// Pre drops the cache, exactly as the pre-engine protocol did. The same
// fixed roots — drawn once from the protocol seed — recur in every pass.
func Phases(db *oo1.Database, p Params, policy cluster.Policy) (observe, replay *workload.Spec, reorganize func() (backend.RelocStats, error)) {
	p = p.withDefaults()
	// Fixed roots: the recurring workload both phases replay.
	src := lewis.New(p.Seed)
	roots := make([]backend.OID, p.Roots)
	for i := range roots {
		roots[i] = db.ByID[src.IntRange(1, db.NumParts())]
	}

	pass := func(obs cluster.Policy) func(*workload.Ctx) (int, error) {
		return func(*workload.Ctx) (int, error) {
			n := 0
			for _, root := range roots {
				m, err := db.TraverseFrom(obs, root, false)
				if err != nil {
					return n, err
				}
				// Each root is one transaction to the policy: DSTC's
				// observation periods count these boundaries.
				if obs != nil {
					obs.EndTransaction()
				}
				n += m
			}
			return n, nil
		}
	}
	dropCache := func(*workload.Ctx) error { db.Store.DropCache(); return nil }

	obsOps := []workload.Op{
		{Name: "before", Count: 1, Pre: dropCache, Run: pass(policy)},
	}
	if p.Repeats > 1 {
		obsOps = append(obsOps, workload.Op{
			Name: "observe", Count: p.Repeats - 1, Pre: dropCache, Run: pass(policy),
		})
	}
	observe = &workload.Spec{
		Name:        "club-observe",
		Description: "CluB observation phase: the recurring traversal workload, policy watching",
		Backend:     db.Store,
		Ops:         obsOps,
	}
	replay = &workload.Spec{
		Name:        "club-replay",
		Description: "CluB replay phase: the same traversals after reclustering",
		Backend:     db.Store,
		Ops: []workload.Op{
			{Name: "after", Count: 1, Pre: dropCache, Run: pass(nil)},
		},
	}
	reorganize = func() (backend.RelocStats, error) {
		if policy == nil {
			return backend.RelocStats{}, nil
		}
		return policy.Reorganize(db.Store)
	}
	return observe, replay, reorganize
}

// RunOn is Run over an already generated database (so callers can reuse
// an expensive database across policies). The passes execute through the
// unified workload engine; this wrapper only sequences the protocol and
// derives the gain figures.
func RunOn(db *oo1.Database, p Params, policy cluster.Policy) (*Result, error) {
	p = p.withDefaults()
	observe, replay, reorganize := Phases(db, p, policy)

	ores, err := workload.Run(observe)
	if err != nil {
		return nil, err
	}
	before := float64(ores.PerOp[0].IOsTotal) / float64(p.Roots)

	clBefore := db.Store.Stats().Disk.ClusteringIOs()
	reloc, err := reorganize()
	if err != nil {
		return nil, err
	}
	clAfter := db.Store.Stats().Disk.ClusteringIOs()

	rres, err := workload.Run(replay)
	if err != nil {
		return nil, err
	}
	after := float64(rres.PerOp[0].IOsTotal) / float64(p.Roots)

	res := &Result{
		IOsBefore:     before,
		IOsAfter:      after,
		Reloc:         reloc,
		ClusteringIOs: clAfter - clBefore,
		GenTime:       db.GenTime,
	}
	if after > 0 {
		res.Gain = before / after
	}
	return res, nil
}

// Check validates a result's internal consistency (used by tests).
func (r *Result) Check() error {
	if r.IOsBefore < 0 || r.IOsAfter < 0 {
		return fmt.Errorf("club: negative I/O means")
	}
	if r.IOsAfter > 0 && r.Gain != r.IOsBefore/r.IOsAfter {
		return fmt.Errorf("club: gain inconsistent")
	}
	return nil
}
