package core

import (
	"ocb/internal/backend"
	"ocb/internal/cluster"
	"ocb/internal/lewis"
	"ocb/internal/workload"
)

// Runner builds the phases of the OCB protocol of §3.3 against a
// database: each of CLIENTN clients performs a run of transactions whose
// types are drawn according to the predefined probabilities, with THINK
// latency between transactions. scenarios.OCB sequences the protocol's
// cold run of COLDN and warm run of HOTN transactions.
type Runner struct {
	DB *Database
	// Policy observes the workload; nil for plain measurement.
	Policy cluster.Policy
}

// NewRunner returns a runner; the policy is synchronized automatically
// when the parameter set asks for multiple clients.
func NewRunner(db *Database, policy cluster.Policy) *Runner {
	if db.P.ClientN > 1 && policy != nil {
		policy = cluster.Synchronize(policy)
	}
	return &Runner{DB: db, Policy: policy}
}

// phaseClient is the per-client engine state of an OCB phase: the
// client's executor and the transaction the sampler drew for the op about
// to run.
type phaseClient struct {
	ex      *Executor
	pending Transaction
}

// PhaseSpec builds the workload-engine spec for one OCB protocol phase:
// the nine transaction types as ops, core's own transaction sampler as
// the mix (so streams are bit-identical to the pre-engine protocol), one
// executor per client, and the phase's pacing parameters. Scenario
// presets run these specs directly; RunPhase runs them as they are.
func (r *Runner) PhaseSpec(name string, txPerClient int, seed int64) *workload.Spec {
	p := r.DB.P
	ops := make([]workload.Op, NumTxTypes)
	for t := TxType(0); t < NumTxTypes; t++ {
		ops[t] = workload.Op{
			Name: t.String(),
			Run: func(ctx *workload.Ctx) (int, error) {
				st := ctx.State.(*phaseClient)
				return st.ex.Exec(st.pending)
			},
		}
	}
	return &workload.Spec{
		Name:     name,
		Clients:  p.ClientN,
		Measured: txPerClient,
		Think:    p.Think,
		Seed:     seed,
		Backend:  r.DB.Store,
		Ops:      ops,
		NewClient: func(c int, src *lewis.Source) any {
			return &phaseClient{ex: NewExecutor(r.DB, r.Policy, src)}
		},
		Next: func(ctx *workload.Ctx) int {
			st := ctx.State.(*phaseClient)
			st.pending = SampleTransaction(p, ctx.Src)
			return int(st.pending.Type)
		},
	}
}

// RunPhase executes one phase of txPerClient transactions per client,
// deterministically in seed. Phases with equal seeds replay identical
// transaction streams — the experiments use this to compare placements
// before and after reclustering on the same workload. The fan-out,
// pacing and measurement live in the workload engine; the result's PerOp
// is indexed by TxType.
func (r *Runner) RunPhase(name string, txPerClient int, seed int64) (*workload.Result, error) {
	return workload.Run(r.PhaseSpec(name, txPerClient, seed))
}

// SampleTransaction draws one transaction according to the workload
// parameters: type by the PSET/PSIMPLE/PHIER/PSTOCH probabilities, root by
// DIST5 (RAND5), depth by the type's depth parameter, hierarchy reference
// type uniform over the NREFT types, and direction by PReverse.
func SampleTransaction(p Params, src *lewis.Source) Transaction {
	u := src.Float64()
	var tx Transaction
	cum := p.PSet
	switch {
	case u < cum:
		tx.Type = SetAccess
		tx.Depth = p.SetDepth
	case u < cum+p.PSimple:
		tx.Type = SimpleTraversal
		tx.Depth = p.SimDepth
	case u < cum+p.PSimple+p.PHier:
		tx.Type = HierarchyTraversal
		tx.Depth = p.HieDepth
		tx.RefType = src.IntRange(1, p.NRefT)
	case u < cum+p.PSimple+p.PHier+p.PStoch:
		tx.Type = StochasticTraversal
		tx.Depth = p.StoDepth
	case u < cum+p.PSimple+p.PHier+p.PStoch+p.PUpdate:
		tx.Type = UpdateOp
	case u < cum+p.PSimple+p.PHier+p.PStoch+p.PUpdate+p.PInsert:
		tx.Type = InsertOp
	case u < cum+p.PSimple+p.PHier+p.PStoch+p.PUpdate+p.PInsert+p.PDelete:
		tx.Type = DeleteOp
	case u < cum+p.PSimple+p.PHier+p.PStoch+p.PUpdate+p.PInsert+p.PDelete+p.PScan:
		tx.Type = ScanOp
	default:
		tx.Type = RangeOp
	}
	tx.Root = backend.OID(p.Dist5.Draw(src, 1, p.NO, 0))
	if p.PReverse > 0 && src.Bernoulli(p.PReverse) {
		tx.Reverse = true
	}
	return tx
}
