package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"ocb/internal/backend"
	"ocb/internal/wire"
)

// TestSmoke runs every workload at the -quick sizes, traced and untraced with
// the probes and every correctness check, and requires every named metric to
// come out as a finite number.
func TestSmoke(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	out := filepath.Join(t.TempDir(), "record.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-quick", "-runs", "1", "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d\n%s\n%s", code, stdout.String(), stderr.String())
	}
	rec, err := readRecord(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the record, want %d", len(rec.Workloads), len(workloads))
	}
	if c := rec.Context; c.GoVersion == "" || c.NumCPU < 1 || c.GOMAXPROCS < 1 || c.Commit == "" || c.Runs != 1 {
		t.Errorf("the record's context is incomplete: %+v", c)
	}
	for i, rep := range rec.Workloads {
		d := workloads[i]
		if rep.Name != d.name {
			t.Fatalf("workload %d is %s, want %s", i, rep.Name, d.name)
		}
		if rep.Clients > 2 || rep.Conns > 2 {
			t.Errorf("%s: %d clients and %d connections, want at most 2", d.name, rep.Clients, rep.Conns)
		}
		if rep.Driver == "" || rep.Measured < 1 || rep.QuantileSamples < 1 {
			t.Errorf("%s: the report lacks its context: driver %q, %d operations, %d samples",
				d.name, rep.Driver, rep.Measured, rep.QuantileSamples)
		}
		for _, def := range endToEnd {
			s, ok := rep.EndToEnd[def.name]
			if def.name == "disk_bytes_per_object" && d.name != "write-waldisk" {
				if ok {
					t.Errorf("%s reports %s, which only a store with files has", d.name, def.name)
				}
				continue
			}
			switch {
			case !ok:
				t.Errorf("%s: no %s", d.name, def.name)
			case math.IsNaN(s.Median) || math.IsInf(s.Median, 0) || s.Unit != def.unit:
				t.Errorf("%s: %s = %v %s", d.name, def.name, s.Median, s.Unit)
			case def.gated && s.Median <= 0:
				t.Errorf("%s: %s = %v, but BENCHMARK.json bounds it as a share of itself", d.name, def.name, s.Median)
			}
		}
		for _, l := range layerMetrics {
			v, ok := rep.PerLayer[l.name]
			if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != l.unit {
				t.Errorf("%s: %s = %v %s (present: %v)", d.name, l.name, v.Value, v.Unit, ok)
			}
		}
		if v := rep.PerLayer["backend.diskstats_calls_per_op"].Value; v < 2 {
			t.Errorf("%s: the tracer saw %v DiskStats calls per operation, the engine makes 2", d.name, v)
		}
		if len(rep.Checks) < 4 {
			t.Errorf("%s: only %d checks ran", d.name, len(rep.Checks))
		}
		for _, c := range rep.Checks {
			if !c.OK {
				t.Errorf("%s: check %q failed: %s", d.name, c.Name, c.Detail)
			}
		}
	}
	remote := rec.workload("serve-remote").PerLayer
	for _, name := range []string{"remote.rtt_ns", "wire.service_ns", "remote.net_ns", "workload.sched_p99_us"} {
		if remote[name].Value <= 0 {
			t.Errorf("serve-remote: %s = %v, want > 0", name, remote[name].Value)
		}
	}
}

// TestDriverLine runs one workload the way BENCHMARK.json's driver does and
// checks the shape of the last line.
func TestDriverLine(t *testing.T) {
	gated := 0
	for _, def := range endToEnd {
		if def.gated {
			gated++
		}
	}
	for trace, want := range map[string]int{"0": gated, "1": len(layerMetrics)} {
		var stdout, stderr bytes.Buffer
		args := []string{"--workload", "engine-flatmem", "--seed", "7", "--seconds", "1", "--trace", trace, "-quick"}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("exit code %d\n%s", code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var fields map[string]json.RawMessage
		var line result
		last := []byte(lines[len(lines)-1])
		if err := json.Unmarshal(last, &fields); err != nil {
			t.Fatalf("last line %q: %v", last, err)
		}
		if err := json.Unmarshal(last, &line); err != nil {
			t.Fatal(err)
		}
		if len(fields) != 4 || !line.Correct || line.Attempted < 1 || line.Failed != 0 || len(line.Metrics) != want {
			t.Errorf("-trace %s: %d keys, correct %v, attempted %d, failed %d, %d metrics (want %d)",
				trace, len(fields), line.Correct, line.Attempted, line.Failed, len(line.Metrics), want)
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "no-such"}, &stdout, &stderr); code == 0 || stdout.Len() > 0 {
		t.Errorf("an unknown workload exits %d and prints %q", code, stdout.String())
	}
}

// TestRefusesMoreClientsThanCPUs: clients that share a CPU measure the
// scheduler.
func TestRefusesMoreClientsThanCPUs(t *testing.T) {
	d := *workloadByName("engine-flatmem")
	d.clients = runtime.NumCPU() + 1
	if _, _, err := d.setUp(env{}, d.sizes(plan{seconds: quickSeconds, quick: true, setups: 1})); err == nil {
		t.Error("set-up accepted more clients than CPUs")
	}
	d.clients, d.conns = 1, runtime.NumCPU()+1
	if _, _, err := d.setUp(env{}, d.sizes(plan{seconds: quickSeconds, quick: true, setups: 1})); err == nil {
		t.Error("set-up accepted more connections than CPUs")
	}
}

// TestCapabilityForwarding: the tracing wrapper has each optional capability
// exactly when the store it wraps has it.
func TestCapabilityForwarding(t *testing.T) {
	serve := func(hosted string) string {
		host, err := backend.Open(hosted, backend.Config{})
		if err != nil {
			t.Fatal(err)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := wire.NewServer(host, hosted, nil)
		done := make(chan error, 1)
		go func() { done <- srv.Serve(l) }()
		t.Cleanup(func() {
			srv.Shutdown()
			if err := <-done; err != nil {
				t.Error(err)
			}
		})
		return l.Addr().String()
	}
	cases := []struct {
		name, driver string
		opts         map[string]string
	}{
		{"paged", "paged", nil},
		{"flatmem", "flatmem", nil},
		{"btree", "btree", nil},
		{"waldisk", "waldisk", map[string]string{"dir": t.TempDir()}},
		{"remote over paged", "remote", map[string]string{"addr": serve("paged"), "conns": "1"}},
		{"remote over flatmem", "remote", map[string]string{"addr": serve("flatmem"), "conns": "1"}},
	}
	seen := make(map[[4]bool]bool)
	for _, c := range cases {
		inner, err := backend.Open(c.driver, backend.Config{Options: c.opts})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { backend.Shutdown(inner) })
		caps := func(b backend.Backend) (has [4]bool) {
			_, has[0] = b.(backend.Ranger)
			_, has[1] = b.(backend.Checker)
			_, has[2] = b.(backend.Durable)
			_, has[3] = b.(backend.IOClassifier)
			return has
		}
		wrapped := wrapTraced(inner, new(tracer))
		if got, want := caps(wrapped), caps(inner); got != want {
			t.Errorf("%s: the wrapper has Ranger, Checker, Durable, IOClassifier = %v, the store %v", c.name, got, want)
		}
		if tracerOf(wrapped) == nil {
			t.Errorf("%s: the wrapper does not give its tracer", c.name)
		}
		seen[caps(inner)] = true
	}
	if len(seen) < 4 {
		t.Errorf("the drivers show only %d capability sets; the test needs stores that differ", len(seen))
	}

	// Through the registered driver, with a call of each kind counted.
	b, err := backend.Open(tracedName, backend.Config{Options: map[string]string{"inner": "paged", "buffer": "64"}})
	if err != nil {
		t.Fatal(err)
	}
	oid, err := b.Create(100)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.(backend.Ranger).SetKey(oid, 1); err != nil {
		t.Fatal(err)
	}
	if s := tracerOf(b).snapshot(); s.calls[mCreate] != 1 || s.calls[mSetKey] != 1 || s.totalCalls() != 2 {
		t.Errorf("the tracer counted %v", s.calls)
	}
	if _, err := backend.Open(tracedName, backend.Config{}); err == nil {
		t.Error("the traced driver opened without an inner driver")
	}
}

// TestSliceEstimators: one stalled slice moves neither estimator.
func TestSliceEstimators(t *testing.T) {
	v := []float64{9, 1000, 10, 11, 1}
	if got := trimmedMean(v); got != 10 {
		t.Errorf("trimmedMean(%v) = %v, want 10", v, got)
	}
	if got := median(v); got != 10 {
		t.Errorf("median(%v) = %v, want 10", v, got)
	}
	if got := trimmedMean(v[:2]); got != 504.5 {
		t.Errorf("trimmedMean(%v) = %v, want 504.5", v[:2], got)
	}
}

// syntheticRecord is a record of one workload whose gated metrics all read
// 100 with a 1% range.
func syntheticRecord() *record {
	rep := &workloadReport{Name: "traverse-paged", EndToEnd: make(map[string]*summary)}
	for _, def := range endToEnd {
		rep.EndToEnd[def.name] = summarize(def.unit, []float64{99.5, 100, 100.5})
	}
	rep.PerLayer = map[string]value{"disk.read_ns": {Value: 30, Unit: "ns"}}
	return &record{Workloads: []*workloadReport{rep}}
}

// TestCompare: identical records pass; 30% less ops_per_s, beyond its bound
// of 20%, is worse and fails the command; a metric whose runs spread wider than its bound is
// unresolved, not worse.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rec *record) string {
		data, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("old.json", syntheticRecord())

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-compare", base, write("same.json", syntheticRecord())}, &stdout, &stderr); code != 0 {
		t.Errorf("identical records exit %d\n%s%s", code, stdout.String(), stderr.String())
	}
	if strings.Contains(stdout.String(), worse) || !strings.Contains(stdout.String(), "disk.read_ns") {
		t.Errorf("identical records print\n%s", stdout.String())
	}

	slower := syntheticRecord()
	slower.Workloads[0].EndToEnd["ops_per_s"] = summarize("ops/s", []float64{69.6, 70, 70.4})
	stdout.Reset()
	if code := run([]string{"-compare", base, write("slower.json", slower)}, &stdout, &stderr); code == 0 {
		t.Errorf("30%% less ops_per_s exits 0\n%s", stdout.String())
	}
	if got := strings.Count(stdout.String(), worse); got != 1 {
		t.Errorf("30%% less ops_per_s marks %d rows worse, want 1\n%s", got, stdout.String())
	}

	noisy := syntheticRecord()
	noisy.Workloads[0].EndToEnd["p99_us"] = summarize("us", []float64{90, 130, 170})
	stdout.Reset()
	if code := run([]string{"-compare", base, write("noisy.json", noisy)}, &stdout, &stderr); code != 0 {
		t.Errorf("an unresolved row exits %d", code)
	}
	if !strings.Contains(stdout.String(), unresolved) {
		t.Errorf("a p99_us spread over 80%% is not unresolved\n%s", stdout.String())
	}
}

// TestBenchmarkJSON: BENCHMARK.json names the workloads and metrics the
// program has, with the same units, directions and bounds.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var bench struct {
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.Paths) != 1 || bench.Paths[0] != "benchmarks" {
		t.Errorf("paths = %v", bench.Paths)
	}
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, the program has %d", len(bench.Workloads), len(workloads))
	}
	for i, w := range bench.Workloads {
		if d := workloads[i]; w.Name != d.name || w.Why != d.why || len(w.Why) > 200 {
			t.Errorf("workload %d: %q, %d characters of why; the program has %q", i, w.Name, len(w.Why), d.name)
		}
	}
	var gated []metric
	for _, def := range endToEnd {
		if def.gated {
			gated = append(gated, metric{def.name, def.unit, def.better, def.rel})
		}
	}
	if len(bench.EndToEnd) != len(gated) {
		t.Fatalf("%d end-to-end metrics, the program gates %d", len(bench.EndToEnd), len(gated))
	}
	for i, m := range bench.EndToEnd {
		if m != gated[i] {
			t.Errorf("end-to-end metric %d is %+v, the program has %+v", i, m, gated[i])
		}
		if m.Name != "setup_s" && m.Bound >= gated[0].Bound {
			t.Errorf("%s has bound %v, not below setup_s's %v", m.Name, m.Bound, gated[0].Bound)
		}
	}
	if len(bench.PerLayer) != len(layerMetrics) {
		t.Fatalf("%d per-layer metrics, the program has %d", len(bench.PerLayer), len(layerMetrics))
	}
	for i, m := range bench.PerLayer {
		if l := layerMetrics[i]; m.Name != l.name || m.Unit != l.unit || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %d is %+v, the program has %v", i, m, l)
		}
	}
}
