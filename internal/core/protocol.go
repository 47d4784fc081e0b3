package core

import (
	"ocb/internal/backend"
	"ocb/internal/cluster"
	"ocb/internal/disk"
	"ocb/internal/lewis"
	"ocb/internal/workload"
)

// Result is a full protocol execution: cold run then warm run.
type Result struct {
	Cold, Warm *workload.Result
	PolicyName string
	Store      backend.Stats
}

// Runner executes the OCB protocol of §3.3 against a database: each of
// CLIENTN clients performs a cold run of COLDN transactions whose types are
// drawn according to the predefined probabilities, then a warm run of HOTN
// transactions, with THINK latency between transactions.
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

// Run executes the full protocol: cold run (ColdN) then warm run (HotN).
func (r *Runner) Run() (*Result, error) {
	cold, err := r.RunPhase("cold", r.DB.P.ColdN, r.DB.P.Seed+1)
	if err != nil {
		return nil, err
	}
	warm, err := r.RunPhase("warm", r.DB.P.HotN, r.DB.P.Seed+2)
	if err != nil {
		return nil, err
	}
	res := &Result{Cold: cold, Warm: warm, Store: r.DB.Store.Stats()}
	if r.Policy != nil {
		res.PolicyName = r.Policy.Name()
	}
	return res, nil
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
				// ExecCounted: the engine samples time and disk counters
				// itself; Exec's own measurement would be dead weight.
				return st.ex.ExecCounted(st.pending)
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

// Reorganize triggers the policy's physical reorganization (phase 5 runs
// "when the system is idle"; the protocol calls it between measurement
// phases) and returns its cost.
func (r *Runner) Reorganize() (backend.RelocStats, error) {
	if r.Policy == nil {
		return backend.RelocStats{}, nil
	}
	// Everything phase 5 does is clustering overhead, so classify its I/O
	// for the duration on backends that expose the hook. The paged driver
	// additionally classifies inside Relocate itself; this covers drivers
	// that do not self-classify.
	backend.SetIOClass(r.DB.Store, disk.Clustering)
	defer backend.SetIOClass(r.DB.Store, disk.Transaction)
	return r.Policy.Reorganize(r.DB.Store)
}
