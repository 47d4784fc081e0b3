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
// then accelerates. Roots random traversal roots are drawn once; a cold
// pass over them is measured, Repeats further passes run with the policy
// observing, the policy reorganizes the database, and the same pass is
// measured again from a cold cache. This package supplies the pass; the
// protocol itself is internal/scenarios' Clustering, shared with every
// other clustering experiment.
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
	// Repeats is how many observed passes the workload recurs for between
	// the two measurements. Default 3.
	Repeats int
	// Seed drives root selection (the same roots recur in every pass).
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

// WithDefaults fills the zero Roots and Repeats with their defaults.
func (p Params) WithDefaults() Params {
	if p.Roots <= 0 {
		p.Roots = 10
	}
	if p.Repeats <= 0 {
		p.Repeats = 3
	}
	return p
}

// Pass is one CluB pass: a traversal from each root, each its own
// operation and, to the policy (nil for an unobserved pass), its own
// transaction. The same fixed roots — drawn from the protocol seed — recur
// in every pass, so a pass's MeanIOsPerOp is the mean I/Os per traversal.
func Pass(db *oo1.Database, p Params, policy cluster.Policy) *workload.Spec {
	p = p.WithDefaults()
	src := lewis.New(p.Seed)
	ops := make([]workload.Op, p.Roots)
	for i := range ops {
		root := db.ByID[src.IntRange(1, db.NumParts())]
		ops[i] = workload.Op{
			Name: fmt.Sprintf("root%d", i+1),
			// TraverseFrom ends the client's stream before the root's
			// transaction ends: DSTC's observation periods count these
			// boundaries.
			Run: func(ctx *workload.Ctx) (int, error) {
				n, err := db.TraverseFrom(ctx.State.(*workload.AccessStream), root, false)
				if err == nil && policy != nil {
					policy.EndTransaction()
				}
				return n, err
			},
		}
	}
	return &workload.Spec{
		Name:        "club",
		Description: "CluB pass: the recurring traversal workload",
		Backend:     db.Store,
		Ops:         ops,
		NewClient: func(int, *lewis.Source) any {
			return &workload.AccessStream{Store: db.Store, Policy: policy}
		},
	}
}
