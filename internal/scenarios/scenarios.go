// Package scenarios names the workload-engine presets the command line
// exposes: each preset is a build phase (database generation) plus one or
// more workload.Spec phases, so `ocb run -scenario oo1` and a JSON spec
// file both resolve to the same engine runs.
//
// Presets:
//
//   - ocb: OCB's own cold/warm protocol (Table 1/Table 2 parameters). OCB
//     builds it from a full core.Params and a clustering policy name; the
//     preset passes the defaults and no policy, the classic `ocb` flag
//     mode every flag and -cluster, so a policy reorganizes between the
//     cold and warm runs with the clustering protocol's one reorganize
//     step.
//   - oo1: the OO1 (Cattell) suite — lookup, traversal, reverse
//     traversal, insert.
//   - oo7: the OO7 suite — traversals, queries, insert+delete.
//   - hypermodel: the 20 HyperModel operations under setup/cold/warm.
//   - dstc: the DSTC-CluB clustering comparison — measure the recurring
//     traversal workload, let DSTC observe it, reorganize, measure again
//     (the Clustering protocol). On backends without physical relocation
//     the reorganization step reports a skip and "after" measures the
//     unclustered layout.
//   - query: the ordered-index category — range scans, attribute
//     selections and zipfian hot-key lookups over the Ranger capability.
//     On backends without an ordered index every op reports a skip.
//
// Every preset accepts think-time or arrival-rate pacing; all but
// dstc (a single-user protocol by definition) accept CLIENTN > 1; all
// but the fixed protocol dstc accept user-authored operation mixes
// re-weighting the preset's op set (ocb maps weights onto its
// transaction-type probabilities).
//
// Clustering policies are named once, by NewPolicy: "none" (nil, the
// no-clustering control), sequential, byclass, hot, greedy and dstc (the
// CluB-style tuning of dstc.NewCluBStyle).
package scenarios

import (
	"errors"
	"fmt"
	"time"

	"ocb/internal/backend"
	"ocb/internal/club"
	"ocb/internal/core"
	"ocb/internal/dstc"
	"ocb/internal/hypermodel"
	"ocb/internal/oo1"
	"ocb/internal/oo7"
	"ocb/internal/query"
	"ocb/internal/workload"
)

// Options parameterizes a preset build. The zero value selects the
// preset's defaults on the default backend.
type Options struct {
	// Backend and BackendOptions select the system under test.
	Backend        string
	BackendOptions map[string]string
	// Quick scales the geometry down to CI size.
	Quick bool
	// Seed offsets the preset's seeds (0 keeps them).
	Seed int64
	// Clients is CLIENTN (0 keeps the preset's default of 1).
	Clients int
	// Think selects closed-loop think-time pacing for every phase.
	Think time.Duration
	// Rate selects open-loop arrival-rate pacing for every phase: Rate
	// ops/sec across all clients, latency measured from scheduled
	// arrival. Mutually exclusive with Think.
	Rate float64
	// ThinkDist makes the pacing stochastic: a lewis distribution spec
	// ("negexp:0.5", "selfsimilar", ...) for the inter-operation gaps,
	// drawn around Think (or the Rate interval) from dedicated per-client
	// streams — deterministic, and the op streams stay identical to
	// constant pacing.
	ThinkDist string
	// TolerateErrors turns op failures into per-op error counts instead
	// of aborting the run (the load-test stance; see workload.Spec).
	TolerateErrors bool
	// SLO attaches pass/fail bounds to every phase; violations surface in
	// each PhaseResult (and as a non-zero exit from `ocb run`).
	SLO *workload.SLO
	// Warmup and Measured switch suite presets from their fixed program
	// to a sampled mix of Measured ops per client after Warmup untimed
	// ones. For the ocb preset they override COLDN and HOTN instead (its
	// two phases are both measured by protocol).
	Warmup   int
	Measured int
	// OpWeights re-weights the preset's operations by name (ops absent
	// from a non-empty map are dropped); OpCounts overrides fixed-program
	// repeat counts the same way. The ocb preset maps OpWeights onto its
	// transaction-type probabilities; the dstc protocol accepts neither.
	OpWeights map[string]float64
	OpCounts  map[string]int
}

// Phase is one engine run of a scenario, optionally preceded by an
// untimed protocol step (reorganization, typically).
type Phase struct {
	Name string
	// Setup runs untimed before the phase and returns a human-readable
	// note. A backend.ErrNotSupported return is reported as a skip, not a
	// failure — the capability-gated steps of the acceptance protocol.
	Setup func() (string, error)
	Spec  *workload.Spec
}

// Scenario is a named, fully built benchmark: generation already done,
// phases ready to run.
type Scenario struct {
	Name        string
	Description string
	// Notes carries build-phase facts (object counts, generation time).
	Notes []string
	// Phases run in order.
	Phases []Phase
}

// PhaseResult pairs a phase with its unified engine result.
type PhaseResult struct {
	Phase string
	// SetupNote reports what the phase's setup step did; SetupSkipped
	// marks a capability skip.
	SetupNote    string
	SetupSkipped bool
	Result       *workload.Result
	// Violations is the phase spec's SLO evaluated against the result
	// (empty when no SLO is declared or the phase met it). Run reports
	// them and keeps going: the caller decides what a violation costs.
	Violations []workload.Violation
}

// Violated reports whether any phase failed its SLO.
func Violated(results []PhaseResult) bool {
	for _, pr := range results {
		if len(pr.Violations) > 0 {
			return true
		}
	}
	return false
}

// Close releases the scenario's system under test (every phase of a
// build runs against the one backend it opened): durable drivers close
// their files — an ephemeral store also removes its scratch directory —
// while in-memory ones make this a no-op. Whoever builds a scenario owns
// closing it once the runs are done.
func (s *Scenario) Close() error {
	if len(s.Phases) == 0 || s.Phases[0].Spec == nil {
		return nil
	}
	return backend.Shutdown(s.Phases[0].Spec.Backend)
}

// Run executes every phase in order.
func (s *Scenario) Run() ([]PhaseResult, error) {
	var out []PhaseResult
	for _, ph := range s.Phases {
		pr := PhaseResult{Phase: ph.Name}
		if ph.Setup != nil {
			note, err := ph.Setup()
			switch {
			case errors.Is(err, backend.ErrNotSupported):
				pr.SetupSkipped = true
				pr.SetupNote = fmt.Sprintf("skipped: %v", err)
			case err != nil:
				return out, fmt.Errorf("scenario %s: phase %s setup: %w", s.Name, ph.Name, err)
			default:
				pr.SetupNote = note
			}
		}
		res, err := workload.Run(ph.Spec)
		if err != nil {
			return out, fmt.Errorf("scenario %s: phase %s: %w", s.Name, ph.Name, err)
		}
		pr.Result = res
		pr.Violations = ph.Spec.SLO.Evaluate(res)
		out = append(out, pr)
	}
	return out, nil
}

// registry lists the presets in presentation order.
var registry = []struct {
	name  string
	desc  string
	build func(Options) (*Scenario, error)
}{
	{"ocb", "OCB cold/warm protocol (Table 1/2 defaults)", buildOCB},
	{"oo1", "OO1 (Cattell): lookup, traversal, reverse traversal, insert", buildOO1},
	{"oo7", "OO7 (small): traversals, queries, insert+delete", buildOO7},
	{"hypermodel", "HyperModel: 20 operations under setup/cold/warm", buildHyperModel},
	{"dstc", "DSTC-CluB: before, observe, recluster, after (gain factor)", buildDSTC},
	{"query", "ordered-index queries: range scans, attribute selections, hot-key lookups", buildQuery},
}

// List returns the preset names in order.
func List() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.name
	}
	return out
}

// Describe returns a preset's one-line description ("" if unknown).
func Describe(name string) string {
	for _, e := range registry {
		if e.name == name {
			return e.desc
		}
	}
	return ""
}

// Build generates the named preset's database and returns its runnable
// phases. Negative counts, think time or rate are rejected before
// anything is generated.
func Build(name string, o Options) (*Scenario, error) {
	if o.Clients < 0 || o.Warmup < 0 || o.Measured < 0 || o.Think < 0 || o.Rate < 0 {
		return nil, fmt.Errorf("scenarios: clients %d, warmup %d, measured %d, think %v and rate %g must not be negative",
			o.Clients, o.Warmup, o.Measured, o.Think, o.Rate)
	}
	for _, e := range registry {
		if e.name == name {
			s, err := e.build(o)
			if err != nil {
				return nil, err
			}
			if err := applyLoadModel(s, o); err != nil {
				_ = s.Close()
				return nil, err
			}
			return s, nil
		}
	}
	return nil, fmt.Errorf("scenarios: unknown scenario %q (valid: %v)", name, List())
}

// applyLoadModel applies the load-model options every preset shares —
// arrival rate, stochastic pacing, error tolerance and SLO bounds — to
// each built phase. It lives here, after the preset builders, so every
// preset (the fixed dstc protocol included: pacing and bounds never
// change what a workload does, only how it is issued and judged) gets
// identical semantics from one code path.
func applyLoadModel(s *Scenario, o Options) error {
	if o.Rate == 0 && o.ThinkDist == "" && !o.TolerateErrors && o.SLO.Empty() {
		return nil
	}
	if o.Rate > 0 && o.Think > 0 {
		return fmt.Errorf("scenarios: rate and think are mutually exclusive (a rate target sets the arrival interval itself)")
	}
	if err := o.SLO.Validate(); err != nil {
		return fmt.Errorf("scenarios: %w", err)
	}
	for i := range s.Phases {
		spec := s.Phases[i].Spec
		if o.Rate > 0 {
			spec.Rate = o.Rate
			spec.Think = 0
		}
		if o.ThinkDist != "" {
			spec.ThinkDist = o.ThinkDist
		}
		if o.TolerateErrors {
			spec.TolerateErrors = true
		}
		if !o.SLO.Empty() {
			// A per-op bound naming an op no phase has is a spec mistake,
			// caught here rather than surfacing as a confusing
			// "measured_ops" violation after a full run.
			for name := range o.SLO.PerOp {
				if !hasOp(spec, name) {
					valid := make([]string, 0, len(spec.Ops))
					for _, op := range spec.Ops {
						valid = append(valid, op.Name)
					}
					return fmt.Errorf("scenarios: slo names op %q, but phase %s has no such operation (valid: %v)",
						name, s.Phases[i].Name, valid)
				}
			}
			spec.SLO = o.SLO
		}
	}
	return nil
}

// hasOp reports whether the spec has an op with the given name.
func hasOp(spec *workload.Spec, name string) bool {
	for _, op := range spec.Ops {
		if op.Name == name {
			return true
		}
	}
	return false
}

// backendLabel names the effective backend driver.
func backendLabel(name string) string {
	if name == "" {
		return backend.DefaultName
	}
	return name
}

// clients resolves the effective client count.
func (o Options) clients() int {
	if o.Clients < 1 {
		return 1
	}
	return o.Clients
}

// applyMix applies pacing and user-authored op overrides to a suite spec.
// A non-empty weights/counts set replaces the mix: only named ops stay,
// re-weighted or re-counted; unknown names are rejected naming the valid
// set.
func applyMix(spec *workload.Spec, o Options) error {
	if o.Think > 0 {
		spec.Think = o.Think
	}
	if o.Measured > 0 {
		spec.Measured = o.Measured
	}
	if o.Warmup > 0 {
		// Always pass warmup through: without -measured the engine's own
		// validation rejects it loudly instead of it being silently lost.
		spec.Warmup = o.Warmup
	}
	if len(o.OpWeights) == 0 && len(o.OpCounts) == 0 {
		return nil
	}
	named := make(map[string]bool, len(o.OpWeights)+len(o.OpCounts))
	for name := range o.OpWeights {
		named[name] = true
	}
	for name := range o.OpCounts {
		named[name] = true
	}
	valid := make([]string, 0, len(spec.Ops))
	var kept []workload.Op
	for _, op := range spec.Ops {
		valid = append(valid, op.Name)
		if !named[op.Name] {
			continue
		}
		delete(named, op.Name)
		// A positive value overrides the preset's; naming an op with zero
		// weight/count just keeps it in the mix unchanged.
		if w := o.OpWeights[op.Name]; w > 0 {
			op.Weight = w
		}
		if c := o.OpCounts[op.Name]; c > 0 {
			op.Count = c
		}
		kept = append(kept, op)
	}
	for name := range named {
		return fmt.Errorf("scenarios: %s has no operation %q (valid: %v)", spec.Name, name, valid)
	}
	spec.Ops = kept
	return nil
}

// buildOCB builds the OCB protocol preset: the Table 1/Table 2 defaults
// (CI-sized with Quick) adjusted by the options, and no clustering policy.
func buildOCB(o Options) (*Scenario, error) {
	for name, c := range o.OpCounts {
		if c > 0 {
			return nil, fmt.Errorf("scenarios: ocb draws its mix from probabilities; use a weight for %q, not a count", name)
		}
	}
	p := core.DefaultParams()
	if o.Quick {
		p.NO = 2000
		p.SupRef = 2000
		p.ColdN = 100
		p.HotN = 300
		p.BufferPages = 64
	}
	p.Backend = o.Backend
	p.BackendOptions = o.BackendOptions
	p.Seed += o.Seed
	p.ClientN = o.clients()
	p.Think = o.Think
	if o.Warmup > 0 {
		p.ColdN = o.Warmup
	}
	if o.Measured > 0 {
		p.HotN = o.Measured
	}
	if len(o.OpWeights) > 0 {
		if err := reweightParams(&p, o.OpWeights); err != nil {
			return nil, err
		}
	}
	return OCB(p, "none")
}

// OCB builds the paper's §3.3 protocol over the Table 1/2 parameters p:
// it generates the database and returns a "cold" phase of COLDN
// transactions per client drawn from Seed+1 and a "warm" phase of HOTN
// drawn from Seed+2, both observed by the named clustering policy (see
// NewPolicy). With a policy other than "none", warm's Setup is the
// clustering protocol's reorganization step: cold, reorganize, warm. The
// ocb preset is OCB without a policy; the classic `ocb` flag mode is OCB
// over every Table 1/2 flag and -cluster.
func OCB(p core.Params, policyName string) (*Scenario, error) {
	db, err := core.Generate(p)
	if err != nil {
		return nil, err
	}
	policy, err := NewPolicy(policyName, db)
	if err != nil {
		_ = db.Close()
		return nil, err
	}
	r := core.NewRunner(db, policy)
	warm := Phase{Name: "warm", Spec: r.PhaseSpec("warm", p.HotN, p.Seed+2)}
	if policy != nil {
		warm.Setup = func() (string, error) { return reorganize(policy, db.Store, new(ClusteringResult)) }
	}
	st := db.Store.Stats()
	layout := fmt.Sprintf("%d objects on %d pages", st.Objects, st.Pages)
	if st.Pages == 0 {
		layout = fmt.Sprintf("%d objects (no page abstraction)", st.Objects)
	}
	return &Scenario{
		Name:        "ocb",
		Description: "OCB cold/warm protocol (Table 1/2 parameters)",
		Notes: []string{fmt.Sprintf("database: NO=%d NC=%d seed=%d on backend %q, generated in %s: %s",
			p.NO, p.NC, p.Seed, backendLabel(p.Backend), db.GenTime.Round(time.Millisecond), layout)},
		Phases: []Phase{{Name: "cold", Spec: r.PhaseSpec("cold", p.ColdN, p.Seed+1)}, warm},
	}, nil
}

// reweightParams maps op weights onto OCB's transaction-type occurrence
// probabilities, normalized to sum to 1.
func reweightParams(p *core.Params, weights map[string]float64) error {
	slots := map[string]*float64{
		core.SetAccess.String():           &p.PSet,
		core.SimpleTraversal.String():     &p.PSimple,
		core.HierarchyTraversal.String():  &p.PHier,
		core.StochasticTraversal.String(): &p.PStoch,
		core.UpdateOp.String():            &p.PUpdate,
		core.InsertOp.String():            &p.PInsert,
		core.DeleteOp.String():            &p.PDelete,
		core.ScanOp.String():              &p.PScan,
		core.RangeOp.String():             &p.PRange,
	}
	// Same semantics as applyMix: naming a type keeps it (zero weight
	// means "at its preset probability"), a positive weight overrides it,
	// unnamed types drop out of the mix. Everything renormalizes to 1.
	effective := make(map[string]float64, len(weights))
	total := 0.0
	for name, w := range weights {
		slot, ok := slots[name]
		if !ok {
			valid := make([]string, 0, len(slots))
			for t := core.TxType(0); t < core.NumTxTypes; t++ {
				valid = append(valid, t.String())
			}
			return fmt.Errorf("scenarios: ocb has no transaction type %q (valid: %v)", name, valid)
		}
		if w < 0 {
			return fmt.Errorf("scenarios: negative weight for %q", name)
		}
		if w == 0 {
			w = *slot
		}
		effective[name] = w
		total += w
	}
	if total <= 0 {
		return fmt.Errorf("scenarios: ocb op weights sum to zero")
	}
	for name, slot := range slots {
		*slot = effective[name] / total
	}
	return nil
}

// buildOO1 builds the OO1 suite preset.
func buildOO1(o Options) (*Scenario, error) {
	p := oo1.DefaultParams()
	if o.Quick {
		p.NumParts = 4000
		p.RefZone = 40
		p.TraversalDepth = 5
		p.NRuns = 3
		p.BufferPages = 64
	}
	p.Backend = o.Backend
	p.BackendOptions = o.BackendOptions
	p.Seed += o.Seed
	db, err := oo1.Generate(p)
	if err != nil {
		return nil, err
	}
	spec := db.Scenario(nil, o.clients())
	if err := applyMix(spec, o); err != nil {
		_ = backend.Shutdown(db.Store)
		return nil, err
	}
	return &Scenario{
		Name:        "oo1",
		Description: "OO1 (Cattell): lookup, traversal, reverse traversal, insert",
		Notes: []string{fmt.Sprintf("database: %d parts, generated in %s",
			p.NumParts, db.GenTime.Round(time.Millisecond))},
		Phases: []Phase{{Name: "bench", Spec: spec}},
	}, nil
}

// buildOO7 builds the OO7 suite preset.
func buildOO7(o Options) (*Scenario, error) {
	p := oo7.DefaultParams()
	if o.Quick {
		p.NumComp = 50
		p.NumAtomic = 10
		p.AssmLevels = 4
		p.BufferPages = 64
	}
	p.Backend = o.Backend
	p.BackendOptions = o.BackendOptions
	p.Seed += o.Seed
	db, err := oo7.Generate(p)
	if err != nil {
		return nil, err
	}
	spec := db.Scenario(nil, o.clients())
	if err := applyMix(spec, o); err != nil {
		_ = backend.Shutdown(db.Store)
		return nil, err
	}
	return &Scenario{
		Name:        "oo7",
		Description: "OO7 (small): traversals, queries, insert+delete",
		Notes: []string{fmt.Sprintf("database: %d composites, %d atomics, generated in %s",
			p.NumComp, db.NumAtomics(), db.GenTime.Round(time.Millisecond))},
		Phases: []Phase{{Name: "bench", Spec: spec}},
	}, nil
}

// buildHyperModel builds the HyperModel suite preset.
func buildHyperModel(o Options) (*Scenario, error) {
	p := hypermodel.DefaultParams()
	if o.Quick {
		p.Levels = 4
		p.Inputs = 10
		p.BufferPages = 32
	}
	p.Backend = o.Backend
	p.BackendOptions = o.BackendOptions
	p.Seed += o.Seed
	db, err := hypermodel.Generate(p)
	if err != nil {
		return nil, err
	}
	spec := db.Scenario(nil, o.clients())
	if err := applyMix(spec, o); err != nil {
		_ = backend.Shutdown(db.Store)
		return nil, err
	}
	return &Scenario{
		Name:        "hypermodel",
		Description: "HyperModel: 20 operations under setup/cold/warm",
		Notes: []string{fmt.Sprintf("database: %d nodes, %d inputs per operation, generated in %s",
			db.NumNodes(), p.Inputs, db.GenTime.Round(time.Millisecond))},
		Phases: []Phase{{Name: "bench", Spec: spec}},
	}, nil
}

// buildQuery builds the ordered-index query preset. The database and the
// op streams are identical on every backend; whether the ops execute or
// report capability skips depends on the backend's Ranger support, and a
// non-indexed build says so in its notes up front.
func buildQuery(o Options) (*Scenario, error) {
	p := query.DefaultParams()
	if o.Quick {
		p.NumObjects = 2000
		p.ScanSpan = 50
		p.Lookups = 20
		p.NRuns = 4
		p.BufferPages = 64
	}
	p.Backend = o.Backend
	p.BackendOptions = o.BackendOptions
	p.Seed += o.Seed
	db, err := query.Generate(p)
	if err != nil {
		return nil, err
	}
	spec := db.Scenario(o.clients())
	if err := applyMix(spec, o); err != nil {
		_ = backend.Shutdown(db.Store)
		return nil, err
	}
	notes := []string{fmt.Sprintf("database: %d objects in %d key classes, generated in %s",
		p.NumObjects, p.Classes, db.GenTime.Round(time.Millisecond))}
	if !db.Indexed() {
		notes = append(notes, fmt.Sprintf(
			"backend %q keeps no ordered index: every operation will report a skip", backendLabel(o.Backend)))
	}
	return &Scenario{
		Name:        "query",
		Description: "ordered-index queries: range scans, attribute selections, hot-key lookups",
		Notes:       notes,
		Phases:      []Phase{{Name: "bench", Spec: spec}},
	}, nil
}

// buildDSTC builds the DSTC-CluB comparison preset: the clustering
// protocol over CluB's recurring traversal workload with DSTC watching.
// The reorganization is the capability-gated step: backends without a
// Relocator report a skip and "after" measures the unchanged layout.
func buildDSTC(o Options) (*Scenario, error) {
	if len(o.OpWeights)+len(o.OpCounts) > 0 || o.Measured > 0 || o.Warmup > 0 {
		return nil, fmt.Errorf("scenarios: dstc runs CluB's fixed protocol; op/measured/warmup overrides are not supported")
	}
	if o.Clients > 1 {
		// CluB is a single-user protocol: the before/after measurement is
		// one cold pass of the fixed workload. Reject rather than silently
		// measuring something else.
		return nil, fmt.Errorf("scenarios: dstc is single-user (CluB protocol); -clients is not supported")
	}
	p := club.DefaultParams()
	if o.Quick {
		p.OO1.NumParts = 4000
		p.OO1.RefZone = 80
		p.OO1.TraversalDepth = 5
		p.OO1.BufferPages = 64
		p.Roots = 6
	}
	p.OO1.Backend = o.Backend
	p.OO1.BackendOptions = o.BackendOptions
	p.OO1.Seed += o.Seed
	p.Seed += o.Seed
	db, err := oo1.Generate(p.OO1)
	if err != nil {
		return nil, err
	}
	sc := CluBClustering(db, p, dstc.NewCluBStyle()).Scenario("dstc", "DSTC-CluB: before, observe, recluster, after (gain factor)")
	if o.Think > 0 {
		for _, ph := range sc.Phases {
			ph.Spec.Think = o.Think
		}
	}
	sc.Notes = []string{
		fmt.Sprintf("database: %d parts (OO1 geometry), %d roots x %d observed recurrences",
			p.OO1.NumParts, p.Roots, p.Repeats),
		"gain factor = mean I/Os per traversal before reclustering / after",
	}
	return sc, nil
}
