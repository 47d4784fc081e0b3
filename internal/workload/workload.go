// Package workload is the unified benchmark engine every suite in this
// repository executes through: OCB's own protocol (package core), OO1,
// OO7, HyperModel and the DSTC-CluB comparison are all expressed as
// declarative Specs — a set of operations plus a mix — and run by one
// Runner that owns client fan-out, think-time pacing, measurement and
// aggregation.
//
// The engine exists so the paper's genericity claim holds in code: there
// is exactly one place that knows how to fan out CLIENTN clients, pace
// them open- or closed-loop, time operations, attribute I/Os, keep the
// measured loop allocation-free, and merge per-client statistics into
// response-time quantiles. Suites contribute only what makes them
// themselves: a build phase (their Generate function) and op
// implementations.
//
// See docs.go for the scenario-author guide.
package workload

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"ocb/internal/backend"
	"ocb/internal/disk"
	"ocb/internal/lewis"
	"ocb/internal/stats"
)

// ErrSkip marks an operation the current backend cannot execute (a missing
// optional capability, typically). The runner records the skip and
// continues instead of failing the run; backend.ErrNotSupported is treated
// the same way, so op bodies can simply propagate capability errors.
var ErrSkip = errors.New("workload: operation skipped")

// Op is one operation of a scenario: a named piece of benchmark work plus
// how often it runs.
type Op struct {
	// Name identifies the op in results, spec files and reports.
	Name string
	// Weight is the op's sampling weight under a mixed workload
	// (Spec.Measured > 0): ops are drawn with probability proportional to
	// their weights. Ignored in fixed-program mode.
	Weight float64
	// Count is how many times the op runs per client in fixed-program mode
	// (Spec.Measured == 0): ops execute in slice order, each Count times
	// (<= 0 means once). Ignored in mixed mode.
	Count int
	// Mutating is ignored by the engine: each suite guards its own state
	// inside Run (see docs.go). It stays for callers that still set it.
	Mutating bool
	// Pre, when set, runs untimed immediately before each execution of the
	// op — input precomputation, cache drops, anything the benchmark's
	// protocol excludes from the measured response time.
	Pre func(*Ctx) error
	// Run executes one instance and returns how many objects it accessed.
	// Returning ErrSkip (or wrapping backend.ErrNotSupported) records a
	// capability skip instead of failing the run.
	Run func(*Ctx) (int, error)
}

// Ctx is the per-client execution context handed to every op. All its
// scratch is reused across the client's operations, so op bodies that
// stick to it allocate nothing in steady state.
type Ctx struct {
	// Client is the client index, 0-based.
	Client int
	// Src is the client's private random source. Every random choice an op
	// makes must come from here (never from state shared across clients),
	// which keeps per-client streams deterministic and race-free.
	Src *lewis.Source
	// State is the suite's per-client state, built by Spec.NewClient.
	State any
	// Seen is a generation-stamped membership set over OIDs — O(1) reset,
	// no per-operation map allocations (the core executor's scratch,
	// shared with every suite).
	Seen SeenSet
	// Batch is a reusable OID buffer for index scan results.
	Batch []backend.OID
}

// Spec declares one benchmark scenario run: the operation set, the mix,
// the client count and pacing, and the system under test. The build phase
// (database generation) happens before the Spec is constructed — a Spec
// closes over an already generated database.
type Spec struct {
	// Name labels the run in results and errors.
	Name string
	// Description is free text for reports and scenario listings.
	Description string
	// Clients is CLIENTN, the number of concurrent clients (0 = 1).
	Clients int
	// Warmup is the number of untimed operations each client executes
	// before measurement begins (mixed mode only; they consume the
	// client's random stream exactly like measured ones).
	Warmup int
	// Measured selects mixed mode: each client executes Measured
	// operations drawn from the weighted mix (or Next). Zero selects
	// fixed-program mode: each client executes the ops in slice order,
	// each Count times.
	Measured int
	// Think is the per-operation think time; zero means saturation.
	Think time.Duration
	// ThinkDist, when set, makes the think time stochastic: a
	// lewis.ParseDistribution spec string ("negexp:0.5", "selfsimilar",
	// "uniform", ...) drawn per operation, in microseconds, over
	// [0, 2*mean] — where the mean is Think (or the per-client arrival
	// interval under a Rate target). Draws come from a dedicated
	// per-client seed-derived stream, never from ctx.Src, so pacing is
	// deterministic run to run and the op streams are bit-identical to a
	// constant-Think run.
	ThinkDist string
	// Rate, when positive, selects a true open-loop arrival-rate target:
	// Rate operations per second across all clients (each client issues
	// one per clients/Rate seconds, client start offsets staggered evenly
	// across one interval). Mutually exclusive with Think. Operations
	// follow the arrival schedule instead of waiting for completions, and
	// latency is measured from the operation's *scheduled* arrival, so
	// queueing delay behind a slow predecessor counts (the
	// coordinated-omission correction).
	Rate float64
	// TolerateErrors keeps the run going when an op fails: the failure is
	// counted in the op's Errors tally (excluded from Count, latency and
	// throughput) instead of aborting the run — the load-test stance,
	// where error *rate* is an SLO, not a fatal condition. Capability
	// skips are recorded separately and never count as errors.
	TolerateErrors bool
	// SLO, when set, declares the pass/fail bounds a caller evaluates
	// against the Result after the measured phase (the engine itself does
	// not gate; see SLO.Evaluate).
	SLO *SLO
	// Seed drives the default per-client sources.
	Seed int64
	// ColdStart drops the backend's cache before the run.
	ColdStart bool
	// Backend is the system under test; the runner samples its disk
	// counters around every operation and the whole run.
	Backend backend.Backend
	// Ops is the operation set.
	Ops []Op
	// Source, when set, supplies each client's random source; the default
	// is lewis.New(Seed + client*104729). Suites use it to hand client 0
	// the generator's own stream, which keeps single-client runs
	// bit-identical to their pre-engine implementations.
	Source func(client int) *lewis.Source
	// NewClient, when set, builds the suite's per-client state (Ctx.State)
	// — typically an executor bound to the client's source.
	NewClient func(client int, src *lewis.Source) any
	// Next, when set, overrides the default weighted draw in mixed mode:
	// it returns the index of the next op to execute and may stash
	// arguments for it in the Ctx. Suites with their own transaction
	// samplers (core's SampleTransaction) use it to keep streams
	// bit-identical. A fixed program (Measured == 0) never calls it, so
	// setting it there is rejected.
	Next func(*Ctx) int
}

// OpMetrics aggregates one op's measurements across all clients.
type OpMetrics struct {
	Name  string
	Count int64
	// Skipped counts executions that reported a capability skip.
	Skipped int64
	// Errors counts failures tolerated under Spec.TolerateErrors. Errored
	// executions contribute to no other aggregate: Count, latency and
	// throughput cover successful operations only.
	Errors int64
	// Response is the per-operation wall-clock response time in
	// microseconds; ResponseQ retains observations for quantiles.
	Response  stats.Welford
	ResponseQ stats.Sample
	// Objects and IOs are per-operation accessed objects and transaction
	// I/Os; ObjectsTotal and IOsTotal are their exact integer sums
	// (deterministic where the op stream is, unlike float accumulations).
	Objects      stats.Welford
	IOs          stats.Welford
	ObjectsTotal int64
	IOsTotal     uint64
}

// add folds one execution in.
//
//ocblint:allocfree -- steady-state hot path
func (m *OpMetrics) add(objects int, ios uint64, d time.Duration) {
	m.Count++
	// Fractional microseconds: sub-microsecond operations still record
	// non-zero response times.
	us := float64(d.Nanoseconds()) / 1e3
	m.Response.Add(us)
	m.ResponseQ.Add(us)
	m.Objects.Add(float64(objects))
	m.IOs.Add(float64(ios))
	m.ObjectsTotal += int64(objects)
	m.IOsTotal += ios
}

// Merge folds another op aggregate into m.
func (m *OpMetrics) Merge(o *OpMetrics) {
	m.Count += o.Count
	m.Skipped += o.Skipped
	m.Errors += o.Errors
	m.Response.Merge(&o.Response)
	m.ResponseQ.Merge(&o.ResponseQ)
	m.Objects.Merge(&o.Objects)
	m.IOs.Merge(&o.IOs)
	m.ObjectsTotal += o.ObjectsTotal
	m.IOsTotal += o.IOsTotal
}

// Result is the unified measurement every scenario run produces.
//
// Exactness under concurrency (Clients > 1): Executed and the per-op
// Count fields are exact and schedule-independent — each client replays
// a deterministic stream. The Objects welfords and ObjectsTotal are
// schedule-independent under a read-only mix; under a mutating mix
// (OCB's Section 5 PInsert/PDelete > 0) a traversal's object count
// depends on which insertions and deletions other clients committed
// first, so only the totals' exactness survives, not their run-to-run
// reproducibility.
// DiskDelta is exact (atomic counters around the whole phase lose
// nothing) and is additionally schedule-independent when the buffer
// holds the phase's working set; under cache pressure the replacement
// policy's choices depend on how clients interleave, so the delta can
// vary slightly between runs. The per-operation IOs welfords and
// IOsTotal are approximate: each operation's I/O delta is read from the
// shared disk counters, so it includes faults that concurrent clients
// interleaved into the window, which for a suite op also spans its wait
// for the suite's lock. Response times are wall-clock and
// naturally vary run to run. With Clients == 1 every metric but the
// response times is exact and reproducible.
type Result struct {
	// Name and Clients echo the spec.
	Name    string
	Clients int
	// Executed is the total operation count across clients (skips
	// excluded); Duration is the measured phase's wall time.
	Executed int64
	Duration time.Duration
	// Throughput is operations per second of wall clock.
	Throughput float64
	// Total aggregates every operation in execution order per client
	// (clients merged in index order, so single-client totals are
	// bit-identical run to run).
	Total OpMetrics
	// PerOp holds one aggregate per spec op, same order as Spec.Ops.
	PerOp []OpMetrics
	// DiskDelta is the exact disk-counter delta of the measured phase;
	// Backend is the backend's full stats snapshot after the run.
	DiskDelta disk.Stats
	Backend   backend.Stats
	// Skips lists capability-gated ops that were skipped, with reasons.
	Skips []string
}

// P50, P95 and P99 are the run's response-time quantiles in microseconds.
func (r *Result) P50() float64 { return r.Total.ResponseQ.Median() }

// P95 is the 95th percentile response time in microseconds.
func (r *Result) P95() float64 { return r.Total.ResponseQ.P95() }

// P99 is the 99th percentile response time in microseconds.
func (r *Result) P99() float64 { return r.Total.ResponseQ.P99() }

// ErrorRate is tolerated failures over attempted operations,
// Errors / (Count + Errors); capability skips are in neither term. Zero
// when nothing was attempted.
func (r *Result) ErrorRate() float64 {
	return errorRate(r.Total.Errors, r.Total.Count)
}

// errorRate computes errors / (ok + errors), zero on an empty run.
func errorRate(errs, ok int64) float64 {
	if errs+ok == 0 {
		return 0
	}
	return float64(errs) / float64(errs+ok)
}

// MeanIOsPerOp is the headline I/O figure: the exact phase disk delta over
// the executed operation count.
func (r *Result) MeanIOsPerOp() float64 {
	if r.Executed == 0 {
		return 0
	}
	return float64(r.DiskDelta.TransactionIOs()) / float64(r.Executed)
}

// Runner executes one Spec.
type Runner struct {
	Spec *Spec

	// thinkDist is the parsed Spec.ThinkDist (nil for constant pacing),
	// resolved once per run.
	thinkDist lewis.Distribution
}

// Run is shorthand for (&Runner{Spec: spec}).Run().
func Run(spec *Spec) (*Result, error) {
	return (&Runner{Spec: spec}).Run()
}

// clientResult is one client's share of a run.
type clientResult struct {
	total OpMetrics
	perOp []OpMetrics
	skips []string
}

// validate reports the first spec inconsistency.
func (s *Spec) validate() error {
	if s.Backend == nil {
		return fmt.Errorf("workload %q: no backend", s.Name)
	}
	if len(s.Ops) == 0 {
		return fmt.Errorf("workload %q: no operations", s.Name)
	}
	seen := make(map[string]bool, len(s.Ops))
	for i, op := range s.Ops {
		if op.Name == "" {
			return fmt.Errorf("workload %q: op %d has no name", s.Name, i)
		}
		if op.Run == nil {
			return fmt.Errorf("workload %q: op %q has no Run", s.Name, op.Name)
		}
		if op.Weight < 0 {
			return fmt.Errorf("workload %q: op %q has negative weight", s.Name, op.Name)
		}
		if seen[op.Name] {
			return fmt.Errorf("workload %q: duplicate op %q", s.Name, op.Name)
		}
		seen[op.Name] = true
	}
	if s.Measured < 0 || s.Warmup < 0 {
		return fmt.Errorf("workload %q: negative phase counts", s.Name)
	}
	if s.Measured > 0 && s.Next == nil {
		total := 0.0
		for _, op := range s.Ops {
			total += op.Weight
		}
		if total <= 0 {
			return fmt.Errorf("workload %q: mixed mode needs positive op weights (or a Next sampler)", s.Name)
		}
	}
	if s.Warmup > 0 && s.Measured == 0 {
		return fmt.Errorf("workload %q: warmup needs a mixed workload (Measured > 0)", s.Name)
	}
	if s.Next != nil && s.Measured == 0 {
		return fmt.Errorf("workload %q: a Next sampler needs a mixed workload (Measured > 0)", s.Name)
	}
	if s.Think < 0 {
		return fmt.Errorf("workload %q: negative think time", s.Name)
	}
	if s.Rate < 0 {
		return fmt.Errorf("workload %q: negative arrival rate", s.Name)
	}
	if s.Rate > 0 && s.Think > 0 {
		return fmt.Errorf("workload %q: Rate and Think are mutually exclusive (a rate target sets the arrival interval itself)", s.Name)
	}
	if s.ThinkDist != "" {
		if _, err := lewis.ParseDistribution(s.ThinkDist); err != nil {
			return fmt.Errorf("workload %q: think distribution: %w", s.Name, err)
		}
		// Gaps are drawn in whole microseconds over [0, 2*interval]: below
		// 1µs every draw is 0 and an arrival schedule never advances.
		if iv := s.interval(); iv < time.Microsecond {
			return fmt.Errorf("workload %q: ThinkDist needs a think time or a rate target with a mean gap of at least 1µs to scale to, got %v", s.Name, iv)
		}
	}
	if err := s.SLO.Validate(); err != nil {
		return fmt.Errorf("workload %q: %w", s.Name, err)
	}
	return nil
}

// interval is the mean inter-operation gap per client: the arrival
// interval clients/Rate under a rate target, the think time otherwise.
func (s *Spec) interval() time.Duration {
	if s.Rate > 0 {
		return time.Duration(float64(s.clients()) / s.Rate * float64(time.Second))
	}
	return s.Think
}

// clients resolves the effective client count.
func (s *Spec) clients() int {
	if s.Clients < 1 {
		return 1
	}
	return s.Clients
}

// source resolves client c's random source.
func (s *Spec) source(c int) *lewis.Source {
	if s.Source != nil {
		return s.Source(c)
	}
	return lewis.New(s.Seed + int64(c)*104729)
}

// Run executes the spec: fan out the clients, execute each client's
// program or sampled mix with think-time pacing, and merge the per-client
// measurements in client index order (so single-client aggregation is
// exactly the sequential fold the pre-engine suites performed).
//
// The phase clock and the exact disk-counter delta cover the measured
// phase only: every client finishes its untimed warmup before the run's
// start time and I/O baseline are sampled (a barrier synchronizes the
// fan-out), so warmup work never pollutes Duration, Throughput or
// MeanIOsPerOp.
func (r *Runner) Run() (*Result, error) {
	s := r.Spec
	if err := s.validate(); err != nil {
		return nil, err
	}
	r.thinkDist = nil
	if s.ThinkDist != "" {
		// Already validated; the parse cannot fail here.
		r.thinkDist, _ = lewis.ParseDistribution(s.ThinkDist)
	}
	n := s.clients()
	if s.ColdStart {
		s.Backend.DropCache()
	}

	var before disk.Stats
	var start time.Time
	beginMeasured := func() {
		before = s.Backend.DiskStats()
		//ocblint:allow determinism -- harness timing, not op logic
		start = time.Now()
	}
	results := make([]*clientResult, n)
	errs := make([]error, n)
	if n == 1 {
		// Single client: run inline. No goroutine hop, and the measured
		// loop stays on the caller's stack (the AllocsPerRun guards rely
		// on this path having no per-phase scheduling overhead).
		results[0], errs[0] = r.runClient(0, beginMeasured)
	} else {
		// Warmup barrier: clients report warmup completion, the main
		// goroutine samples the phase baseline, then releases them into
		// the measured phase together.
		var warmed sync.WaitGroup
		warmed.Add(n)
		measure := make(chan struct{})
		barrier := func() {
			warmed.Done()
			<-measure
		}
		var wg sync.WaitGroup
		for c := 0; c < n; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				results[c], errs[c] = r.runClient(c, barrier)
			}(c)
		}
		warmed.Wait()
		beginMeasured()
		close(measure)
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	res := &Result{Name: s.Name, Clients: n, PerOp: make([]OpMetrics, len(s.Ops))}
	for i, op := range s.Ops {
		res.PerOp[i].Name = op.Name
	}
	seenSkip := make(map[string]bool)
	for _, cm := range results {
		res.Total.Merge(&cm.total)
		for i := range cm.perOp {
			res.PerOp[i].Merge(&cm.perOp[i])
		}
		for _, sk := range cm.skips {
			if !seenSkip[sk] {
				seenSkip[sk] = true
				res.Skips = append(res.Skips, sk)
			}
		}
	}
	res.Executed = res.Total.Count
	//ocblint:allow determinism -- harness timing, not op logic
	res.Duration = time.Since(start)
	res.DiskDelta = s.Backend.DiskStats().Sub(before)
	res.Backend = s.Backend.Stats()
	if secs := res.Duration.Seconds(); secs > 0 {
		res.Throughput = float64(res.Executed) / secs
	}
	return res, nil
}

// runClient executes one client's share of the run. It calls barrier
// exactly once, after its warmup completes (on every path, including
// warmup failure — the other clients are waiting on it).
func (r *Runner) runClient(c int, barrier func()) (*clientResult, error) {
	s := r.Spec
	src := s.source(c)
	ctx := &Ctx{Client: c, Src: src}
	if s.NewClient != nil {
		ctx.State = s.NewClient(c, src)
	}
	cm := &clientResult{perOp: make([]OpMetrics, len(s.Ops))}
	for i, op := range s.Ops {
		cm.perOp[i].Name = op.Name
	}

	next := s.Next
	if next == nil && s.Measured > 0 {
		next = s.weightedSampler()
	}

	// Warmup: untimed, unrecorded, unpaced, same stream discipline as
	// measurement.
	for i := 0; i < s.Warmup; i++ {
		idx := next(ctx)
		if _, err := r.step(ctx, cm, idx, i, false, zeroTime); err != nil {
			barrier()
			return nil, err
		}
	}
	barrier()

	pace := r.newPacer(c)
	if s.Measured > 0 {
		for i := 0; i < s.Measured; i++ {
			idx := next(ctx)
			arrival := pace.beforeOp()
			if _, err := r.step(ctx, cm, idx, i, true, arrival); err != nil {
				return nil, err
			}
			pace.afterOp()
		}
		return cm, nil
	}
	// Fixed program: ops in order, each Count times.
	seq := 0
	for idx, op := range s.Ops {
		count := op.Count
		if count <= 0 {
			count = 1
		}
		for k := 0; k < count; k++ {
			arrival := pace.beforeOp()
			if _, err := r.step(ctx, cm, idx, seq, true, arrival); err != nil {
				return nil, err
			}
			seq++
			pace.afterOp()
		}
	}
	return cm, nil
}

// zeroTime marks an operation without a scheduled arrival (closed-loop or
// unpaced): its latency runs from the call into the op body alone.
var zeroTime time.Time

// thinkSeedOffset derives the per-client think-time streams from the
// spec seed, disjoint by construction from the op-sampling streams
// (seed + c*104729) and the suites' insert streams (seed + 15485863 +
// c*104729): stochastic pacing must never perturb an op draw.
const thinkSeedOffset = 32452843

// pacer owns one client's inter-operation pacing. Open loop (a Rate
// target) issues operations on an arrival schedule: beforeOp
// waits for — and reports — the next scheduled arrival, and afterOp
// advances the schedule by the (possibly stochastic) gap whether or not
// the runner is on time, so a slow operation makes its successors
// *late*, never *fewer*. Closed loop sleeps the gap after each
// completion, the classic interactive-client model. The zero pacer is
// inert (saturation).
type pacer struct {
	open bool
	next time.Time // next scheduled arrival (open loop only)
	gap  func() time.Duration
}

// newPacer builds client c's pacer; call it when the measured phase
// starts, because the open-loop schedule anchors at the call time. Under
// a Rate target the clients' schedules are staggered evenly across one
// arrival interval (synchronized fan-out would otherwise fire all
// clients in lockstep bursts a real open-loop population does not
// produce).
func (r *Runner) newPacer(c int) *pacer {
	s := r.Spec
	mean := s.interval()
	if mean <= 0 {
		return &pacer{}
	}
	p := &pacer{open: s.Rate > 0, gap: func() time.Duration { return mean }}
	if r.thinkDist != nil {
		// Stochastic think times: gaps drawn in whole microseconds over
		// [0, 2*mean] from a dedicated per-client seed-derived stream —
		// never from ctx.Src, so the op streams stay bit-identical to a
		// constant-Think run. Symmetric shapes (uniform, normal) keep the
		// configured mean exactly; negexp:0.5 is the exponential think
		// time of the paper's THINK, truncated at twice the mean.
		src := lewis.New(s.Seed + thinkSeedOffset + int64(c)*104729)
		dist := r.thinkDist
		hi := int(2 * mean / time.Microsecond)
		p.gap = func() time.Duration {
			return time.Duration(dist.Draw(src, 0, hi, 0)) * time.Microsecond
		}
	}
	if p.open {
		//ocblint:allow determinism -- harness timing, not op logic
		p.next = time.Now().Add(mean * time.Duration(c) / time.Duration(s.clients()))
	}
	return p
}

// beforeOp waits for the operation's scheduled arrival and returns it;
// the zero time under closed-loop or unpaced specs. When the runner is
// behind schedule it does not wait — the operation is already overdue,
// and its latency will carry the lateness as queueing delay.
func (p *pacer) beforeOp() time.Time {
	if !p.open {
		return zeroTime
	}
	arrival := p.next
	//ocblint:allow determinism -- harness timing, not op logic
	if d := time.Until(arrival); d > 0 {
		time.Sleep(d)
	}
	return arrival
}

// afterOp advances the arrival schedule (open loop) or sleeps the think
// time (closed loop).
func (p *pacer) afterOp() {
	if p.gap == nil {
		return
	}
	g := p.gap()
	if p.open {
		p.next = p.next.Add(g)
	} else if g > 0 {
		time.Sleep(g)
	}
}

// weightedSampler returns the default mixed-mode op sampler: a draw from
// the cumulative weight distribution via the client's source.
func (s *Spec) weightedSampler() func(*Ctx) int {
	cum := make([]float64, len(s.Ops))
	total := 0.0
	for i, op := range s.Ops {
		total += op.Weight
		cum[i] = total
	}
	return func(ctx *Ctx) int {
		u := ctx.Src.Float64() * total
		for i, c := range cum {
			if u < c {
				return i
			}
		}
		return len(cum) - 1
	}
}

// step executes one operation instance: untimed Pre, timed Run with the
// I/O delta sampled around it, then metric recording. A skip (ErrSkip or
// a missing backend capability) is recorded, not failed. A suite that
// locks its own state does so inside Run, so a client queued behind
// another client's op carries that wait in its latency.
//
// A non-zero arrival is the operation's scheduled arrival under open-loop
// pacing: the recorded latency is time.Since(arrival) at completion, so an
// operation issued late (the runner stuck behind a slow predecessor)
// carries its queueing delay — the coordinated-omission correction. The
// lateness is sampled once at entry, before Pre, so Pre stays untimed.
//
//ocblint:allocfree -- steady-state hot path
func (r *Runner) step(ctx *Ctx, cm *clientResult, idx, seq int, record bool, arrival time.Time) (int, error) {
	s := r.Spec
	var late time.Duration
	if !arrival.IsZero() {
		//ocblint:allow determinism -- harness timing, not op logic
		late = time.Since(arrival)
		if late < 0 {
			late = 0
		}
	}
	op := &s.Ops[idx]
	if op.Pre != nil {
		if err := op.Pre(ctx); err != nil {
			if isSkip(err) {
				if record {
					r.recordSkip(cm, idx, err)
				}
				return 0, nil
			}
			if s.TolerateErrors {
				if record {
					cm.perOp[idx].Errors++
					cm.total.Errors++
				}
				return 0, nil
			}
			return 0, r.wrap(ctx, seq, op, err)
		}
	}
	ioBefore := s.Backend.DiskStats().TransactionIOs()
	//ocblint:allow determinism -- harness timing, not op logic
	t0 := time.Now()
	objects, err := op.Run(ctx)
	//ocblint:allow determinism -- harness timing, not op logic
	d := time.Since(t0) + late
	ios := s.Backend.DiskStats().TransactionIOs() - ioBefore
	if err != nil {
		if isSkip(err) {
			// Warmup skips are not recorded, mirroring successful warmup
			// executions: the measured phase's counters cover it alone.
			if record {
				r.recordSkip(cm, idx, err)
			}
			return 0, nil
		}
		if s.TolerateErrors {
			// Load-test stance: the failure becomes an Errors tick (the
			// SLO's error-rate input) and the client keeps going. Warmup
			// failures are not recorded, mirroring skips.
			if record {
				cm.perOp[idx].Errors++
				cm.total.Errors++
			}
			return 0, nil
		}
		return 0, r.wrap(ctx, seq, op, err)
	}
	if record {
		cm.perOp[idx].add(objects, ios, d)
		cm.total.add(objects, ios, d)
	}
	return objects, nil
}

// isSkip reports whether an op error means "skip, don't fail".
func isSkip(err error) bool {
	return errors.Is(err, ErrSkip) || errors.Is(err, backend.ErrNotSupported)
}

// recordSkip notes a capability skip for the op. Only the op's first
// skip formats a note (a skipped op in a long mixed run would otherwise
// accumulate thousands of identical strings); the Skipped counter keeps
// the full tally.
func (r *Runner) recordSkip(cm *clientResult, idx int, err error) {
	cm.perOp[idx].Skipped++
	if cm.perOp[idx].Skipped == 1 {
		cm.skips = append(cm.skips, fmt.Sprintf("%s: %v", r.Spec.Ops[idx].Name, err))
	}
}

// wrap annotates an op failure with its position in the client's stream.
func (r *Runner) wrap(ctx *Ctx, seq int, op *Op, err error) error {
	return fmt.Errorf("workload %q: client %d: transaction %d (%s): %w",
		r.Spec.Name, ctx.Client, seq, op.Name, err)
}
