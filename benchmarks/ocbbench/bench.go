package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"ocb/internal/backend"
	"ocb/internal/core"
	"ocb/internal/workload"
)

// sizes are the operation counts of one repetition, per client.
type sizes struct {
	warmup, measured int
	// setups is how many times set-up runs; the measured phase uses the last.
	setups int
}

// quickSeconds and quickWarmupDiv are the -quick sizes, for the smoke test:
// phases sized for a fifth of a second, on a twentieth of the warmup.
const (
	quickSeconds   = 0.2
	quickWarmupDiv = 20
)

func (d *workloadDef) sizes(pl plan) sizes {
	sz := sizes{warmup: d.warmup, setups: pl.setups}
	if pl.quick {
		sz.warmup /= quickWarmupDiv
	}
	sz.measured = max(int(math.Round(float64(d.perSec)*pl.seconds)), 1)
	return sz
}

// check is one correctness check of a repetition.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

func passed(name string, err error) check {
	if err != nil {
		return check{Name: name, Detail: err.Error()}
	}
	return check{Name: name, OK: true}
}

// outcome is what one repetition of a workload measured.
type outcome struct {
	setupS   []float64
	generate time.Duration
	heapMB   float64
	// slices are the measured phase's parts, res is their whole.
	slices []*workload.Result
	res    *workload.Result
	// mallocs is the number of heap allocations during the measured phase.
	mallocs uint64
	// before is the store's counters when the measured phase began; the
	// counters when it ended are res.Backend.
	before backend.Stats
	// client and host are the spans of the store the engine drives and of
	// the store behind the server, nil when untraced or absent.
	client, host *spans
	driver       string
	options      map[string]string
	// dirBytes, segments, liveObjects and reopen are filled on waldisk.
	dirBytes, segments int64
	liveObjects        int
	reopen             time.Duration
	checks             []check
}

func (o *outcome) attempted() int64 { return o.res.Total.Count + o.res.Total.Errors }
func (o *outcome) failed() int64    { return o.res.Total.Errors }

// setUp opens the workload on a fresh store, generates its database and runs
// the untimed warmup from a cold cache. Its duration is setup_s.
func (d *workloadDef) setUp(e env, sz sizes) (*instance, time.Duration, error) {
	if n := runtime.NumCPU(); d.clients > n || d.conns > n {
		return nil, 0, fmt.Errorf("%s needs %d clients and %d connections, but the machine has %d CPUs: "+
			"clients sharing a CPU would measure the scheduler", d.name, d.clients, d.conns, n)
	}
	start := time.Now()
	in, err := d.open(e)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: set-up: %w", d.name, err)
	}
	in.seed += e.seed
	in.store.DropCache()
	if _, err := workload.Run(in.phase("warmup", sz.warmup, in.seed+1)); err != nil {
		in.close()
		return nil, 0, fmt.Errorf("%s: warmup: %w", d.name, err)
	}
	return in, time.Since(start), nil
}

// repeat runs one repetition: set-up sz.setups times, the measured phase on
// the last, then the correctness checks.
func (d *workloadDef) repeat(e env, sz sizes) (*outcome, error) {
	o := new(outcome)
	var in *instance
	for i := 0; i < sz.setups; i++ {
		if in != nil {
			if err := in.close(); err != nil {
				return nil, fmt.Errorf("%s: closing: %w", d.name, err)
			}
		}
		var took time.Duration
		var err error
		if in, took, err = d.setUp(e, sz); err != nil {
			return nil, err
		}
		o.setupS = append(o.setupS, took.Seconds())
	}
	defer func() { in.close() }()
	o.generate, o.driver, o.options = in.generate, in.driver, in.options
	client, host := tracerOf(in.store), tracerOf(in.host)
	for _, t := range []*tracer{client, host} {
		if t != nil {
			t.reset()
		}
	}

	var mem runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&mem)
	o.heapMB = float64(mem.HeapAlloc) / (1 << 20)
	mallocs := mem.Mallocs
	o.before = in.store.Stats()

	var err error
	if o.slices, err = in.measure(sz); err != nil {
		return nil, fmt.Errorf("%s: measured phase: %w", d.name, err)
	}
	runtime.ReadMemStats(&mem)
	res := whole(o.slices, o.before)
	o.res, o.mallocs = res, mem.Mallocs-mallocs
	o.client, o.host = client.snapshot(), host.snapshot()

	o.checks = append(o.checks, passed("error_rate is 0", func() error {
		if o.failed() > 0 {
			return fmt.Errorf("%d of %d operations failed", o.failed(), o.attempted())
		}
		if len(res.Skips) > 0 {
			return fmt.Errorf("operations skipped: %s", strings.Join(res.Skips, "; "))
		}
		return nil
	}()))
	if in.dir != "" {
		o.checks = append(o.checks, passed("every live object survives Close and Reopen", o.reopenCheck(in)))
	}
	o.liveObjects = in.live()
	o.checks = append(o.checks, passed("backend.CheckIntegrity", backend.CheckIntegrity(in.store)))
	if in.ocb != nil {
		o.checks = append(o.checks, passed("core.CheckDatabase", core.CheckDatabase(in.ocb)))
	} else {
		o.checks = append(o.checks, passed("the ordered index lists every object", indexCheck(in.store)))
	}
	return o, nil
}

// numSlices is the number of parts the measured phase runs in. Throughput and
// the response-time metrics are reported as the mean over the parts that
// remain when the lowest and the highest are dropped, so that a stall of the
// machine during one part does not move them; counts are summed over all of
// them. The median of the parts would do that too, but it repeats worse: on
// traverse-paged a part's p50_us moves by a tenth with the draw, and over
// twenty runs the median of the five spread twice as wide as this mean.
const numSlices = 5

// measure runs the measured phase: numSlices engine runs, back to back on the
// warmed store, each with its own operation stream.
func (in *instance) measure(sz sizes) ([]*workload.Result, error) {
	parts := make([]*workload.Result, numSlices)
	for i := range parts {
		spec := in.phase(fmt.Sprintf("measured-%d", i), max(sz.measured/numSlices, 1), in.seed+2+int64(i))
		// Failures are counted, not fatal: the error rate is a result.
		spec.TolerateErrors = true
		res, err := workload.Run(spec)
		if err != nil {
			return nil, err
		}
		parts[i] = res
	}
	return parts, nil
}

// whole folds the parts of a measured phase that began at the counters
// before into one result.
func whole(parts []*workload.Result, before backend.Stats) *workload.Result {
	last := parts[len(parts)-1]
	res := &workload.Result{Name: "measured", Clients: last.Clients, Backend: last.Backend}
	for _, part := range parts {
		res.Total.Merge(&part.Total)
		res.Duration += part.Duration
		res.Skips = append(res.Skips, part.Skips...)
	}
	res.Executed = res.Total.Count
	res.Throughput = float64(res.Executed) / res.Duration.Seconds()
	res.DiskDelta = last.Backend.Disk.Sub(before.Disk)
	return res
}

// reopenCheck closes the durable store, measures its directory, reopens it
// and checks that every live object is there with the size it had.
func (o *outcome) reopenCheck(in *instance) error {
	db := in.ocb
	live := db.LiveOIDs()
	want := make([]int, len(live))
	for i, oid := range live {
		size, ok := db.Store.SizeOf(oid)
		if !ok {
			return fmt.Errorf("live object %d has no size before Close", oid)
		}
		want[i] = size
	}
	d, ok := db.Store.(backend.Durable)
	if !ok {
		return fmt.Errorf("the store is not Durable")
	}
	if err := d.Close(); err != nil {
		return fmt.Errorf("Close: %w", err)
	}
	var err error
	if o.dirBytes, o.segments, err = dirUsage(in.dir); err != nil {
		return err
	}
	start := time.Now()
	reopened, err := d.Reopen()
	if err != nil {
		return fmt.Errorf("Reopen: %w", err)
	}
	o.reopen = time.Since(start)
	db.Store, in.store = reopened, reopened
	for i, oid := range live {
		if !reopened.Exists(oid) {
			return fmt.Errorf("object %d is gone after Reopen", oid)
		}
		if got, _ := reopened.SizeOf(oid); got != want[i] {
			return fmt.Errorf("object %d has size %d after Reopen, had %d", oid, got, want[i])
		}
	}
	if got := reopened.Stats().Objects; got != len(live) {
		return fmt.Errorf("%d objects after Reopen, %d were live", got, len(live))
	}
	return nil
}

// dirUsage sums the files of a data directory and counts its segment files.
func dirUsage(dir string) (bytes, segments int64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0, err
	}
	for _, ent := range entries {
		info, err := ent.Info()
		if err != nil {
			return 0, 0, err
		}
		bytes += info.Size()
		if filepath.Ext(ent.Name()) == ".log" {
			segments++
		}
	}
	return bytes, segments, nil
}

// indexCheck compares a full scan of the ordered index with the store's own
// object count.
func indexCheck(b backend.Backend) error {
	rg, err := backend.AsRanger(b)
	if err != nil {
		return err
	}
	oids, err := rg.Scan(1, backend.NilOID, 0, false, nil)
	if err != nil {
		return err
	}
	if want := b.Stats().Objects; len(oids) != want {
		return fmt.Errorf("a full scan returns %d objects, the store holds %d", len(oids), want)
	}
	return nil
}

// replayOnFlatmem runs traverse-paged's warmup and measured phases on
// flatmem and returns the objects the measured phase accessed. The paper's
// genericity claim is that this count does not depend on the store.
func replayOnFlatmem(e env, sz sizes) (int64, error) {
	p := traverseParams(env{})
	p.Backend, p.BackendOptions = "flatmem", nil
	in, err := openOCB(p)
	if err != nil {
		return 0, err
	}
	defer in.close()
	in.seed += e.seed
	if _, err := workload.Run(in.phase("warmup", sz.warmup, in.seed+1)); err != nil {
		return 0, err
	}
	parts, err := in.measure(sz)
	if err != nil {
		return 0, err
	}
	return whole(parts, backend.Stats{}).Total.ObjectsTotal, nil
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// trimmedMean is the mean of v without its lowest and its highest value.
func trimmedMean(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) > 2 {
		s = s[1 : len(s)-1]
	}
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}
