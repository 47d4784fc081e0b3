package scenarios

import (
	"strings"
	"testing"
	"time"

	"ocb/internal/workload"
)

// runLoad builds and runs one preset with the given load-model options.
func runLoad(t *testing.T, name string, o Options) []PhaseResult {
	t.Helper()
	o.Quick = true
	sc, err := Build(name, o)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	defer func() { _ = sc.Close() }()
	results, err := sc.Run()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return results
}

// pacingSignature reduces a run to the part stochastic pacing must never
// change: per-op executed counts and exact accessed-object totals, plus
// the final store object count. One masked field, matching the oo1
// suite's own determinism contract: at CLIENTN>1 reverse-traversal walks
// In lists that concurrent inserts grow permanently, so its object count
// is legitimately schedule-dependent — on a paced run as on a saturated
// one — and only its executed count is pinned.
func pacingSignature(results []PhaseResult, clients int) string {
	var b strings.Builder
	for _, pr := range results {
		b.WriteString(pr.Phase)
		for _, om := range pr.Result.PerOp {
			objects := itoa(om.ObjectsTotal)
			if clients > 1 && om.Name == "reverse-traversal" {
				objects = "-"
			}
			b.WriteString(" " + om.Name + ":" + itoa(om.Count) + "/" + objects)
		}
		b.WriteString(" objects=" + itoa(int64(pr.Result.Backend.Objects)) + "\n")
	}
	return b.String()
}

// TestStochasticPacingGoldenAcrossBackends is the scenario-layer
// seed-determinism golden for ThinkDist: with stochastic pacing the
// per-client op streams and aggregates — everything but wall-clock
// timing — are bit-identical run to run AND identical to the
// constant-Think stream, at CLIENTN 1 and 4, across the paged and btree
// backends. Pacing draws come from dedicated streams; the moment a think
// draw leaks into an op stream this golden breaks.
func TestStochasticPacingGoldenAcrossBackends(t *testing.T) {
	if testing.Short() {
		t.Skip("pacing golden skipped in -short mode")
	}
	for _, be := range []string{"paged", "btree"} {
		for _, clients := range []int{1, 4} {
			base := Options{
				Backend:  be,
				Clients:  clients,
				Warmup:   10,
				Measured: 120 / clients,
				Think:    100 * time.Microsecond,
			}
			stoch := base
			stoch.ThinkDist = "negexp:0.5"
			a := pacingSignature(runLoad(t, "oo1", stoch), clients)
			b := pacingSignature(runLoad(t, "oo1", stoch), clients)
			if a != b {
				t.Fatalf("%s clients=%d: stochastic pacing not reproducible:\n%s\nvs\n%s", be, clients, a, b)
			}
			constant := pacingSignature(runLoad(t, "oo1", base), clients)
			if a != constant {
				t.Fatalf("%s clients=%d: ThinkDist changed the op stream:\n%s\nvs constant:\n%s", be, clients, a, constant)
			}
		}
	}
}

// TestFileSpecLoadModelFields: the JSON load-model surface lands on
// every phase spec.
func TestFileSpecLoadModelFields(t *testing.T) {
	sc, err := Load(strings.NewReader(`{
		"scenario": "oo1",
		"quick": true,
		"measured": 50,
		"rate": 1200,
		"think_dist": "negexp:0.5",
		"tolerate_errors": true,
		"slo": {"p95_us": 9000, "max_error_rate": 0.5, "per_op": {"lookup": {"p95_us": 8000}}}
	}`), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sc.Close() }()
	spec := sc.Phases[0].Spec
	if spec.Rate != 1200 || spec.ThinkDist != "negexp:0.5" || !spec.TolerateErrors {
		t.Fatalf("load model not applied: rate=%g dist=%q tolerate=%v", spec.Rate, spec.ThinkDist, spec.TolerateErrors)
	}
	if spec.SLO == nil || spec.SLO.P95Us != 9000 {
		t.Fatalf("slo not applied: %+v", spec.SLO)
	}
	if spec.SLO.MaxErrorRate == nil || *spec.SLO.MaxErrorRate != 0.5 {
		t.Fatal("max_error_rate not decoded")
	}
	if b, ok := spec.SLO.PerOp["lookup"]; !ok || b.P95Us != 8000 {
		t.Fatalf("per_op bound not decoded: %+v", spec.SLO.PerOp)
	}
}

// TestSLOViolationSurfacesFromRun: an unreachable bound produces
// violations in the phase results, and Violated reports them.
func TestSLOViolationSurfacesFromRun(t *testing.T) {
	results := runLoad(t, "oo1", Options{
		Measured: 30,
		SLO:      &workload.SLO{SLOBound: workload.SLOBound{MinOpsPerSec: 1e12}},
	})
	if !Violated(results) {
		t.Fatal("unreachable throughput floor not violated")
	}
	found := false
	for _, pr := range results {
		for _, v := range pr.Violations {
			if v.Metric == "min_ops_per_sec" {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("violations missing min_ops_per_sec: %+v", results)
	}
	// And a generous SLO passes cleanly on the same workload.
	clean := runLoad(t, "oo1", Options{
		Measured: 30,
		SLO:      &workload.SLO{SLOBound: workload.SLOBound{P95Us: 6e7}},
	})
	if Violated(clean) {
		t.Fatalf("generous SLO violated: %+v", clean)
	}
}

// TestSLOUnknownOpRejectedAtBuild: a per-op bound naming an op the
// preset does not have fails the build with the valid set, instead of
// surfacing as a confusing violation after a full run.
func TestSLOUnknownOpRejectedAtBuild(t *testing.T) {
	_, err := Build("oo1", Options{Quick: true, SLO: &workload.SLO{
		PerOp: map[string]workload.SLOBound{"nosuchop": {P95Us: 1}},
	}})
	if err == nil {
		t.Fatal("unknown SLO op accepted")
	}
	if !strings.Contains(err.Error(), "nosuchop") || !strings.Contains(err.Error(), "lookup") {
		t.Fatalf("error %q does not name the bad op and the valid set", err)
	}
}

// TestLoadModelValidationAtBuild: bad load-model combinations fail the
// build, not the run.
func TestLoadModelValidationAtBuild(t *testing.T) {
	cases := []Options{
		{Quick: true, Rate: -5},
		{Quick: true, Rate: 100, Think: time.Millisecond},
		{Quick: true, SLO: &workload.SLO{SLOBound: workload.SLOBound{P95Us: -1}}},
		{Quick: true, Clients: -3},
		{Quick: true, Measured: -5},
		{Quick: true, Warmup: -2},
		{Quick: true, Think: -5 * time.Millisecond},
	}
	for i, o := range cases {
		if _, err := Build("oo1", o); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
}

// TestFileSpecRejectsUnknownSLOKeys: DisallowUnknownFields reaches into
// the nested slo block.
func TestFileSpecRejectsUnknownSLOKeys(t *testing.T) {
	_, err := Load(strings.NewReader(`{
		"scenario": "oo1",
		"quick": true,
		"slo": {"p95_miliseconds": 5}
	}`), Options{})
	if err == nil {
		t.Fatal("unknown slo key accepted")
	}
}

// TestFileSpecRejectsOpenLoopKey: the retired "open_loop" key gets no
// compatibility shim — the loader rejects it like any unknown field, and
// the error names it so the author knows what to replace with "rate".
func TestFileSpecRejectsOpenLoopKey(t *testing.T) {
	_, err := Load(strings.NewReader(`{
		"scenario": "oo1",
		"quick": true,
		"think": "100us",
		"open_loop": true
	}`), Options{})
	if err == nil {
		t.Fatal("open_loop key accepted")
	}
	if !strings.Contains(err.Error(), "open_loop") {
		t.Fatalf("error %q does not name the open_loop key", err)
	}
}
