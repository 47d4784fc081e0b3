package scenarios

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	_ "ocb/internal/backend/all"
)

// runPreset builds and runs one preset at quick scale.
func runPreset(t *testing.T, name, be string) []PhaseResult {
	t.Helper()
	sc, err := Build(name, Options{Backend: be, Quick: true})
	if err != nil {
		t.Fatalf("%s on %s: %v", name, be, err)
	}
	results, err := sc.Run()
	if err != nil {
		t.Fatalf("%s on %s: %v", name, be, err)
	}
	return results
}

// signature reduces a run to its deterministic part: per-phase, per-op
// executed counts and exact accessed-object totals, plus the final object
// count of the store.
func signature(results []PhaseResult) string {
	var b strings.Builder
	for _, pr := range results {
		b.WriteString(pr.Phase)
		for _, om := range pr.Result.PerOp {
			b.WriteString(" ")
			b.WriteString(om.Name)
			b.WriteString(":")
			b.WriteString(strings.Join([]string{
				itoa(om.Count), itoa(om.ObjectsTotal),
			}, "/"))
		}
		b.WriteString(" objects=")
		b.WriteString(itoa(int64(pr.Result.Backend.Objects)))
		b.WriteString("\n")
	}
	return b.String()
}

func itoa(v int64) string {
	var buf [20]byte
	neg := v < 0
	if neg {
		v = -v
	}
	i := len(buf)
	for {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
		if v == 0 {
			break
		}
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// TestSeedDeterminismGolden is the cross-suite determinism contract: the
// same seed produces an identical generated object graph and op stream —
// identical per-op executed counts and accessed-object totals — for every
// scenario preset, run to run and across two backends (the workload is
// defined over the object graph, not the store). Most presets compare
// paged against flatmem; the query preset compares the two Ranger
// backends instead — on flatmem its ops legitimately all skip, which the
// dedicated skip test below pins.
func TestSeedDeterminismGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("determinism sweep skipped in -short mode")
	}
	for _, name := range List() {
		t.Run(name, func(t *testing.T) {
			pair := []string{"paged", "flatmem"}
			if name == "query" {
				pair = []string{"paged", "btree"}
			}
			sigs := map[string]string{}
			for _, be := range pair {
				a := signature(runPreset(t, name, be))
				bsig := signature(runPreset(t, name, be))
				if a != bsig {
					t.Fatalf("%s on %s not reproducible:\n%s\nvs\n%s", name, be, a, bsig)
				}
				sigs[be] = a
			}
			if sigs[pair[0]] != sigs[pair[1]] {
				t.Fatalf("%s signature differs across backends:\n%s:\n%s\n%s:\n%s",
					name, pair[0], sigs[pair[0]], pair[1], sigs[pair[1]])
			}
		})
	}
}

// TestQueryScenarioSkipsOnFlatmem pins the capability-gated workload
// category: on a backend without an ordered index the query preset still
// builds and runs — nothing fails — but executes zero operations, each
// op records its skips, and the build notes say why up front.
func TestQueryScenarioSkipsOnFlatmem(t *testing.T) {
	sc, err := Build("query", Options{Backend: "flatmem", Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sc.Close() }()
	noted := false
	for _, n := range sc.Notes {
		noted = noted || strings.Contains(n, "no ordered index")
	}
	if !noted {
		t.Fatalf("notes %v do not warn about the missing index", sc.Notes)
	}
	results, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	res := results[0].Result
	if res.Executed != 0 {
		t.Fatalf("Executed = %d on flatmem, want 0", res.Executed)
	}
	if len(res.Skips) == 0 {
		t.Fatal("no skip reasons recorded")
	}
	for _, sk := range res.Skips {
		if !strings.Contains(sk, "Ranger") {
			t.Fatalf("skip reason %q does not name the missing capability", sk)
		}
	}
}

// TestDSTCScenarioSkipsOnFlatmem pins the capability-gated protocol step:
// on a backend without physical relocation the reorganization reports a
// skip and the after pass still runs.
func TestDSTCScenarioSkipsOnFlatmem(t *testing.T) {
	results := runPreset(t, "dstc", "flatmem")
	replay := results[len(results)-1]
	if replay.Phase != "after" {
		t.Fatalf("last phase is %q, want after", replay.Phase)
	}
	if !replay.SetupSkipped {
		t.Fatalf("reorganization not reported as skipped: %q", replay.SetupNote)
	}
	if !strings.Contains(replay.SetupNote, "not supported") {
		t.Fatalf("skip note %q does not name the missing capability", replay.SetupNote)
	}
	if replay.Result == nil || replay.Result.Executed == 0 {
		t.Fatal("replay phase did not run after the skip")
	}

	// On the paged backend the same step reorganizes for real.
	paged := runPreset(t, "dstc", "paged")
	if after := paged[len(paged)-1]; after.SetupSkipped || !strings.Contains(after.SetupNote, "reorganized") {
		t.Fatalf("paged reorganization note = %q", after.SetupNote)
	}
}

func TestBuildUnknownScenario(t *testing.T) {
	_, err := Build("oo9", Options{})
	if err == nil || !strings.Contains(err.Error(), "oo1") {
		t.Fatalf("unknown scenario error %v does not list valid names", err)
	}
}

func TestApplyMixRejectsUnknownOp(t *testing.T) {
	_, err := Build("oo1", Options{Quick: true, OpWeights: map[string]float64{"frobnicate": 1}})
	if err == nil || !strings.Contains(err.Error(), "lookup") {
		t.Fatalf("unknown op error %v does not list valid ops", err)
	}
}

func TestOCBWeightsRemapProbabilities(t *testing.T) {
	sc, err := Build("ocb", Options{Quick: true, Measured: 60, Warmup: 30,
		OpWeights: map[string]float64{"set": 1, "update": 1}})
	if err != nil {
		t.Fatal(err)
	}
	results, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range results {
		for _, om := range pr.Result.PerOp {
			if om.Count > 0 && om.Name != "set" && om.Name != "update" {
				t.Fatalf("phase %s sampled %s despite zero weight", pr.Phase, om.Name)
			}
		}
	}
	if warm := results[1].Result; warm.Executed != 60 {
		t.Fatalf("warm executed = %d, want measured override 60", warm.Executed)
	}
	if cold := results[0].Result; cold.Executed != 30 {
		t.Fatalf("cold executed = %d, want warmup override 30", cold.Executed)
	}
}

func TestLoadFileBuildsScenario(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "spec.json")
	spec := `{
		"scenario": "oo1",
		"quick": true,
		"clients": 2,
		"measured": 40,
		"think": "100us",
		"ops": [
			{"name": "lookup", "weight": 3},
			{"name": "traversal", "weight": 1}
		]
	}`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	sc, err := LoadFile(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Phases) != 1 {
		t.Fatalf("phases = %d", len(sc.Phases))
	}
	ws := sc.Phases[0].Spec
	if len(ws.Ops) != 2 || ws.Ops[0].Name != "lookup" || ws.Ops[1].Name != "traversal" {
		t.Fatalf("ops not filtered to the named set: %+v", ws.Ops)
	}
	if ws.Ops[0].Weight != 3 || ws.Ops[1].Weight != 1 {
		t.Fatalf("weights not applied: %v/%v", ws.Ops[0].Weight, ws.Ops[1].Weight)
	}
	if ws.Clients != 2 || ws.Measured != 40 || ws.Think.Microseconds() != 100 {
		t.Fatalf("pacing overrides not applied: %+v", ws)
	}
	results, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Result.Executed != 2*40 {
		t.Fatalf("executed = %d, want 80", results[0].Result.Executed)
	}
}

func TestLoadFileRejectsGarbage(t *testing.T) {
	cases := []string{
		`{}`,                                   // no scenario
		`{"scenario": "oo1", "unknown": true}`, // unknown field
		`{"scenario": "oo1", "think": "tomorrow"}`, // bad duration
	}
	for _, c := range cases {
		if _, err := Load(strings.NewReader(c), Options{}); err == nil {
			t.Fatalf("spec %s accepted", c)
		}
	}
}

// TestExampleSpecFilesLoad keeps the bundled example specs valid.
func TestExampleSpecFilesLoad(t *testing.T) {
	matches, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil || len(matches) == 0 {
		t.Fatalf("no example spec files found: %v", err)
	}
	for _, path := range matches {
		if _, err := LoadFile(path, Options{}); err != nil {
			t.Errorf("%s: %v", path, err)
		}
	}
}

// TestScenarioCloseIdempotent pins the stacked-shutdown contract from the
// command side: `ocb run` defers both the scenario's Close and a
// backend-level shutdown over the same store, so a repeated Close must be
// a clean no-op — including on a durable backend that really closes files.
func TestScenarioCloseIdempotent(t *testing.T) {
	sc, err := Build("oo1", Options{
		Backend:        "waldisk",
		BackendOptions: map[string]string{"dir": t.TempDir()},
		Quick:          true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Run(); err != nil {
		t.Fatal(err)
	}
	if err := sc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sc.Close(); err != nil {
		t.Fatalf("second Close: %v, want nil", err)
	}
}
