package main

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"time"

	"ocb/internal/stats"
	"ocb/internal/workload"
)

// record is the result of one invocation, with the context it was measured
// in. -out writes it and -compare reads it.
type record struct {
	Context   runContext        `json:"context"`
	Workloads []*workloadReport `json:"workloads"`
}

type runContext struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Quick      bool    `json:"quick"`
	Runs       int     `json:"runs"`
	Setups     int     `json:"setups_per_run"`
}

// commitOf is the revision the binary was built from, when the build saw a
// version control checkout.
func commitOf() string {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch {
			case s.Key == "vcs.revision":
				commit = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				defer func() { commit += "+modified" }()
			}
		}
	}
	return commit
}

// plan is how an invocation runs each workload.
type plan struct {
	seed    int64
	seconds float64
	quick   bool
	// runs untraced repetitions, each on a fresh store set up setups times;
	// then, when traced, one traced repetition.
	runs, setups int
	traced       bool
}

func (pl plan) context() runContext {
	return runContext{
		Commit: commitOf(), GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Seed: pl.seed, Seconds: pl.seconds, Quick: pl.quick, Runs: pl.runs, Setups: pl.setups,
	}
}

// summary is one end-to-end metric over the untraced repetitions.
type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Runs   []float64 `json:"runs"`
}

func summarize(unit string, runs []float64) *summary {
	return &summary{Unit: unit, Median: median(runs), Min: slices.Min(runs), Max: slices.Max(runs), Runs: runs}
}

// workloadReport is everything one workload produced.
type workloadReport struct {
	Name    string            `json:"name"`
	Why     string            `json:"why"`
	Clients int               `json:"clients"`
	Conns   int               `json:"connections"`
	Driver  string            `json:"driver"`
	Options map[string]string `json:"options"`
	// Warmup and Measured are operations per client.
	Warmup   int `json:"warmup_ops"`
	Measured int `json:"measured_ops"`
	// QuantileSamples is how many response times each slice's p50 and p99
	// rest on: the engine keeps at most a reservoir's worth.
	QuantileSamples int64               `json:"quantile_samples"`
	Attempted       int64               `json:"attempted"`
	Failed          int64               `json:"failed"`
	EndToEnd        map[string]*summary `json:"end_to_end"`
	PerLayer        map[string]value    `json:"per_layer,omitempty"`
	Checks          []check             `json:"checks"`
}

// addChecks appends checks, keeping one line for a check that passed in
// every repetition.
func (r *workloadReport) addChecks(cs ...check) {
	for _, c := range cs {
		if !c.OK || !slices.Contains(r.Checks, c) {
			r.Checks = append(r.Checks, c)
		}
	}
}

func (r *workloadReport) correct() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

// openLoopRate is the arrival rate of serve-remote's open-loop pass: half
// the closed-loop ops_per_s of the machine the benchmark was defined on.
// lateAfter is how long after its scheduled arrival an operation may start
// before it counts as late.
const (
	openLoopRate = 1200.0
	lateAfter    = time.Millisecond
)

// run measures one workload as the plan says. probes, when not nil, are
// merged into the per-layer metrics of a traced plan.
func (d *workloadDef) run(pl plan, probes map[string]float64) (*workloadReport, error) {
	sz := d.sizes(pl)
	e := env{seed: pl.seed}
	rep := &workloadReport{
		Name: d.name, Why: d.why, Clients: d.clients, Conns: d.conns,
		Warmup: sz.warmup, Measured: sz.measured,
		EndToEnd: make(map[string]*summary),
	}
	runs := make(map[string][]float64)
	// Of the first untraced repetition only the totals are kept: an outcome
	// holds its response-time reservoirs, and one kept alive would count in
	// the heap_mb of every later repetition.
	var untraced totals
	var untracedOps float64
	for i := 0; i < pl.runs; i++ {
		o, err := d.repeat(e, sz)
		if err != nil {
			return nil, err
		}
		e2e := endToEndOf(o)
		if i == 0 {
			untraced, untracedOps = totalsOf(o), e2e["ops_per_s"]
			rep.Driver, rep.Options = o.driver, o.options
			rep.QuantileSamples = min(o.slices[0].Total.ResponseQ.N(), stats.DefaultSampleCap)
		}
		rep.Attempted += o.attempted()
		rep.Failed += o.failed()
		rep.addChecks(o.checks...)
		for name, v := range e2e {
			runs[name] = append(runs[name], v)
		}
	}
	for _, def := range endToEnd {
		if v := runs[def.name]; len(v) > 0 {
			rep.EndToEnd[def.name] = summarize(def.unit, v)
		}
	}
	if d.replayed {
		rep.addChecks(passed("a flatmem replay of the same seed accesses the same objects", func() error {
			got, err := replayOnFlatmem(e, sz)
			if want := untraced.objects; err == nil && got != want {
				err = fmt.Errorf("%d objects on flatmem, %d on paged", got, want)
			}
			return err
		}()))
	}
	if !pl.traced {
		return rep, nil
	}

	e.traced = true
	sz.setups = 1
	traced, err := d.repeat(e, sz)
	if err != nil {
		return nil, err
	}
	rep.addChecks(traced.checks...)
	rep.addChecks(reconcile(traced))
	if d.clients == 1 {
		// Two clients interleave differently from run to run, and what an
		// insert or a delete does depends on the interleaving.
		rep.addChecks(sameObjects(totalsOf(traced), untraced))
	}
	layers := layersOf(traced, untracedOps)
	for name, v := range probes {
		layers[name] = v
	}
	if d.conns > 0 {
		sched, err := d.openLoopPass(env{seed: pl.seed}, sz, pl.seconds/2)
		if err != nil {
			return nil, err
		}
		for name, v := range sched {
			layers[name] = v
		}
	}
	rep.PerLayer = make(map[string]value, len(layerMetrics))
	for _, l := range layerMetrics {
		rep.PerLayer[l.name] = value{Value: layers[l.name], Unit: l.unit}
	}
	return rep, nil
}

// openLoopPass runs the workload once more on a fresh untraced store at a
// fixed arrival rate with a constant gap, for about the given number of
// seconds, and reports latency from scheduled arrival, the share of
// operations that started late and the share of the rate that was achieved.
// On two cores these do not repeat well enough to carry a bound.
func (d *workloadDef) openLoopPass(e env, sz sizes, seconds float64) (map[string]float64, error) {
	in, _, err := d.setUp(e, sz)
	if err != nil {
		return nil, err
	}
	defer in.close()
	spec := in.phase("open-loop", max(int(openLoopRate*seconds)/d.clients, 1), in.seed+2+numSlices)
	spec.Rate = openLoopRate
	spec.TolerateErrors = true

	// The engine does not report lateness, but with a constant gap the
	// schedule can be rebuilt from outside: a client's first operation
	// starts on time, and each later one is due one interval after the
	// previous.
	interval := time.Duration(float64(d.clients) / openLoopRate * float64(time.Second))
	type schedule struct {
		first   time.Time
		n, late int
	}
	clients := make([]schedule, d.clients)
	for i := range spec.Ops {
		run := spec.Ops[i].Run
		spec.Ops[i].Run = func(ctx *workload.Ctx) (int, error) {
			s := &clients[ctx.Client]
			now := time.Now()
			if s.n == 0 {
				s.first = now
			}
			if now.Sub(s.first.Add(time.Duration(s.n)*interval)) > lateAfter {
				s.late++
			}
			s.n++
			return run(ctx)
		}
	}
	res, err := workload.Run(spec)
	if err != nil {
		return nil, fmt.Errorf("%s: open-loop pass: %w", d.name, err)
	}
	started, late := 0, 0
	for _, s := range clients {
		started, late = started+s.n, late+s.late
	}
	return map[string]float64{
		"workload.sched_p50_us":       res.P50(),
		"workload.sched_p99_us":       res.P99(),
		"workload.late_frac":          float64(late) / float64(started),
		"workload.achieved_rate_frac": res.Throughput / openLoopRate,
	}, nil
}

// print writes the report for a reader.
func (r *workloadReport) print(w io.Writer, ctx runContext) {
	fmt.Fprintf(w, "\n== %s: %s\n", r.Name, r.Why)
	opts := make([]string, 0, len(r.Options))
	for k, v := range r.Options {
		opts = append(opts, k+"="+v)
	}
	sort.Strings(opts)
	fmt.Fprintf(w, "   closed loop, %d client(s), %d connection(s); driver %s %s; per client %d warmup + %d measured operations; seed %d\n",
		r.Clients, r.Conns, r.Driver, strings.Join(opts, " "), r.Warmup, r.Measured, ctx.Seed)
	fmt.Fprintf(w, "   end-to-end, median of %d untraced run(s) [min .. max]; rates and times are means of the middle %d of %d slices, quantiles over %d response times per slice\n",
		ctx.Runs, numSlices-2, numSlices, r.QuantileSamples)
	for _, def := range endToEnd {
		s, ok := r.EndToEnd[def.name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "     %-24s %14.4f %-12s [%.4f .. %.4f]\n", def.name, s.Median, s.Unit, s.Min, s.Max)
	}
	if r.PerLayer != nil {
		fmt.Fprintf(w, "   per-layer, one traced run and the probes\n")
		for _, l := range layerMetrics {
			fmt.Fprintf(w, "     %-34s %14.4f %s\n", l.name, r.PerLayer[l.name].Value, l.unit)
		}
	}
	for _, c := range r.Checks {
		if c.OK {
			fmt.Fprintf(w, "   ok    %s\n", c.Name)
		} else {
			fmt.Fprintf(w, "   FAIL  %s: %s\n", c.Name, c.Detail)
		}
	}
}
