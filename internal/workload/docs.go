package workload

// Scenario-author guide
//
// This package is the one place that knows how to *run* a benchmark;
// a scenario contributes only what makes it itself. Writing one means
// answering five questions.
//
// # 1. What is the build phase?
//
// Generate your database before constructing the Spec — the engine never
// builds state, it only measures ops against an existing backend. Your
// generator should draw every random choice from a seeded lewis.Source
// so the graph is reproducible, and create objects in a deterministic
// order (backends issue OIDs sequentially; the cross-suite determinism
// golden in internal/scenarios compares object counts across backends).
//
// # 2. What are the ops?
//
// An Op is a named closure over your database. Rules that keep it
// engine-clean:
//
//   - Draw ALL randomness from ctx.Src, never from state shared across
//     clients. Each client owns its Source; sharing one races.
//   - Return the number of objects the op accessed. The engine times the
//     call and samples the backend's disk counters around it. The rule,
//     stated once: a suite never reads a clock or a disk counter; it
//     returns an object count. workload.Run is the only thing that times
//     a suite op, workload.Result the only schema it is reported in, and
//     report.ResultTable the only table that shows it.
//   - Use the Ctx scratch (ctx.Seen, ctx.Frontier/Queue/Batch) instead
//     of allocating per-op maps and slices; the measured loop is guarded
//     allocation-free and your op is inside it.
//   - Put untimed protocol steps (input precomputation, cache drops) in
//     Pre, not Run — Pre executes immediately before each run of the op,
//     outside the measurement window.
//   - If the op needs an optional backend capability, return ErrSkip or
//     propagate the backend.ErrNotSupported error: the engine records a
//     skip and the run continues. Never fail a run for a missing
//     capability.
//
// # 3. What is the mix?
//
// Fixed program (Measured == 0): ops run in slice order, each Count
// times per client — the classic suite protocols (OO1's "each operation
// NRuns times"). Mixed mode (Measured > 0): each client executes
// Measured ops drawn by Weight through the client's own Source — OCB's
// probability-driven transaction stream. Give ops both a Count and a
// Weight and the same Spec serves both modes; spec files flip between
// them by setting "measured".
//
// A suite with its own transaction sampler can set Next instead of
// weights: it returns the next op index and may stash the sampled
// arguments in ctx.State (see core.Runner.PhaseSpec, which routes
// SampleTransaction through Next so engine streams are bit-identical to
// the paper protocol).
//
// # 4. What is shared, and who may write it?
//
// If your in-memory dictionaries are not concurrency-safe, set
// Spec.Lock and mark the ops that restructure them Mutating: the engine
// takes the lock shared for reads and exclusive for mutations, and lock
// wait correctly counts toward the op's measured response time. Ops
// whose layers synchronize internally (core's executor does its own
// locking; plain Store calls are always safe) leave Lock nil.
//
// Per-client suite state (executors, precomputed inputs) goes in
// NewClient; read it back via ctx.State. To keep CLIENTN=1 runs
// bit-identical to a pre-engine implementation, hand client 0 the
// database's own generation stream through Spec.Source and derive
// streams for the rest (the convention is seed + client*104729).
//
// # 5. How hard is it driven?
//
// The default is a saturation run: each client issues its next op the
// moment the previous one returns. That answers "how fast can it go" —
// for "how does it behave under realistic traffic" the Spec carries a
// load model, all of it optional and none of it visible to your ops:
//
//   - Think pauses each client between ops (closed loop: the pause runs
//     after completion, so it never counts toward latency). ThinkDist
//     replaces the constant pause with a distribution spec in lewis
//     syntax ("negexp:0.5", "uniform", "selfsimilar:0.2") whose mean is
//     Think. Pacing draws come from dedicated per-client streams, never
//     ctx.Src, so op streams are bit-identical to the constant-Think
//     run — the scenario goldens rely on that.
//   - Rate drives the run open loop at a target arrival rate in ops/sec
//     across all clients. Arrivals follow the schedule whether or not
//     the backend keeps up, and latency is measured from the *scheduled*
//     arrival, so queueing delay past the saturation knee lands in the
//     quantiles instead of being coordinated-omitted. Rate and Think are
//     mutually exclusive; ThinkDist under Rate jitters the arrival gaps
//     around the rate's mean.
//   - SLO declares pass/fail bounds (P95Us, P99Us, MinOpsPerSec,
//     MaxErrorRate, plus per-op bounds) evaluated against the Result
//     after the run — see slo.go. Scenario files set them in a "slo"
//     block and `ocb run` exits non-zero on violations, which is what
//     makes a scenario a CI performance test.
//   - TolerateErrors converts op failures into an Errors tick (excluded
//     from latency and throughput) instead of aborting — for overload
//     scenarios where shed load is the measurement, paired with a
//     MaxErrorRate bound.
//
// Sweep runs one Spec across a clients × rate grid, and FindMaxRate
// binary-searches the highest rate that holds a P95 bound — both in
// sweep.go, surfaced as `ocb sweep` and the `load` experiment.
//
// # Wiring it up
//
// Expose a `Scenario(policy, clients) *workload.Spec` constructor from
// your suite package, add a preset builder in internal/scenarios (that
// is what `ocb run -scenario <name>` and JSON spec files resolve
// through), and pin two tests: a CLIENTN=1 golden against known metric
// values, and a CLIENTN>1 run for the race detector. The engine's own
// guarantees — merge order, skip accounting, pacing, zero-alloc measured
// loop — are covered here and need no per-suite re-testing.
