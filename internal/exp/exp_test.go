package exp

import (
	"errors"
	"os"
	"strconv"
	"strings"
	"testing"

	"ocb/internal/backend"
	"ocb/internal/core"
	"ocb/internal/report"
	"ocb/internal/scenarios"
)

var quick = Config{Quick: true}

func cellFloat(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q is not numeric: %v", s, err)
	}
	return v
}

func TestTable1PinsPaperDefaults(t *testing.T) {
	tb, err := Table1(quick)
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != 13 {
		t.Fatalf("Table 1 has %d rows, want 13", tb.NumRows())
	}
	want := map[string]string{
		"NC": "20", "MAXNREF (i)": "10", "NO": "20000", "NREFT": "4",
	}
	for _, row := range tb.Rows() {
		if v, ok := want[row[0]]; ok && row[2] != v {
			t.Fatalf("%s = %s, want %s", row[0], row[2], v)
		}
	}
}

func TestTable2PinsPaperDefaults(t *testing.T) {
	tb, err := Table2(quick)
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != 13 {
		t.Fatalf("Table 2 has %d rows, want 13", tb.NumRows())
	}
	want := map[string]string{
		"SETDEPTH": "3", "SIMDEPTH": "3", "HIEDEPTH": "5", "STODEPTH": "50",
		"COLDN": "1000", "HOTN": "10000", "CLIENTN": "1",
	}
	for _, row := range tb.Rows() {
		if v, ok := want[row[0]]; ok && row[2] != v {
			t.Fatalf("%s = %s, want %s", row[0], row[2], v)
		}
	}
}

func TestTable3MatchesPreset(t *testing.T) {
	tb, err := Table3(quick)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]string{}
	for _, row := range tb.Rows() {
		byName[row[0]] = row[2]
	}
	if byName["NC"] != "2" || byName["MAXNREF"] != "3" || byName["NREFT"] != "3" {
		t.Fatalf("Table 3 wrong: %v", byName)
	}
	if byName["INFCLASS"] != "0" {
		t.Fatal("INFCLASS must be 0 (NIL references possible)")
	}
	if !strings.HasPrefix(byName["DIST4"], "refzone") {
		t.Fatalf("DIST4 = %s", byName["DIST4"])
	}
}

func TestFig4ShapeQuick(t *testing.T) {
	tb, err := Fig4(quick)
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != 3 {
		t.Fatalf("rows = %d", tb.NumRows())
	}
	// Creation time must grow with database size (column 1, 1-class).
	first := cellFloat(t, tb.Cell(0, 1))
	last := cellFloat(t, tb.Cell(tb.NumRows()-1, 1))
	if last <= first {
		t.Fatalf("creation time did not grow with size: %v -> %v", first, last)
	}
}

func TestTable4ShapeQuick(t *testing.T) {
	tb, err := Table4(quick)
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != 2 {
		t.Fatalf("rows = %d", tb.NumRows())
	}
	clubGain := cellFloat(t, tb.Cell(0, 3))
	ocbGain := cellFloat(t, tb.Cell(1, 3))
	// Paper shape: both benchmarks show a clear DSTC gain; CluB (DSTC's
	// own benchmark) flatters it more than OCB does (13.2 vs 8.71).
	if clubGain <= 1.5 {
		t.Fatalf("CluB gain = %v, want > 1.5", clubGain)
	}
	if ocbGain <= 1.2 {
		t.Fatalf("OCB gain = %v, want > 1.2", ocbGain)
	}
	if clubGain <= ocbGain {
		t.Fatalf("shape inverted: CluB gain %v <= OCB gain %v", clubGain, ocbGain)
	}
}

func TestTable5ShapeQuick(t *testing.T) {
	t4, err := Table4(quick)
	if err != nil {
		t.Fatal(err)
	}
	t5, err := Table5(quick)
	if err != nil {
		t.Fatal(err)
	}
	mixedGain := cellFloat(t, t5.Cell(0, 3))
	singleGain := cellFloat(t, t4.Cell(1, 3))
	if mixedGain <= 1 {
		t.Fatalf("mixed workload gain = %v, want > 1", mixedGain)
	}
	// Paper shape: the mixed workload blunts DSTC (2.58 vs 8.71).
	if mixedGain >= singleGain {
		t.Fatalf("shape inverted: mixed gain %v >= single-type gain %v", mixedGain, singleGain)
	}
}

func TestGenericityCheck(t *testing.T) {
	tb, err := GenericityCheck(quick)
	if err != nil {
		t.Fatal(err)
	}
	if got := tb.Cell(0, 1); got != "3280" {
		t.Fatalf("OO1-shaped traversal visited %s objects, want 3280", got)
	}
}

func TestPoliciesShape(t *testing.T) {
	tb, err := Policies(quick)
	if err != nil {
		t.Fatal(err)
	}
	gains := map[string]float64{}
	overhead := map[string]float64{}
	for _, row := range tb.Rows() {
		gains[row[0]] = cellFloat(t, row[3])
		overhead[row[0]] = cellFloat(t, row[4])
	}
	if gains["none"] != 1.00 {
		t.Fatalf("none gain = %v, want exactly 1", gains["none"])
	}
	if overhead["none"] != 0 {
		t.Fatal("none charged clustering I/O")
	}
	if gains["dstc"] <= 1.2 {
		t.Fatalf("dstc gain = %v", gains["dstc"])
	}
	if overhead["dstc"] == 0 || overhead["sequential"] == 0 {
		t.Fatal("active policies charged no clustering overhead")
	}
	if len(gains) != 6 {
		t.Fatalf("policies = %d", len(gains))
	}
}

func TestBufferSweepMonotone(t *testing.T) {
	tb, err := BufferSweep(quick)
	if err != nil {
		t.Fatal(err)
	}
	// More buffer -> fewer I/Os per transaction.
	var prev float64 = -1
	for i := 0; i < tb.NumRows(); i++ {
		ios := cellFloat(t, tb.Cell(i, 1))
		if prev >= 0 && ios > prev {
			t.Fatalf("I/Os grew with buffer: row %d: %v -> %v", i, prev, ios)
		}
		prev = ios
	}
}

func TestReverseRuns(t *testing.T) {
	tb, err := Reverse(quick)
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != 2 {
		t.Fatalf("rows = %d", tb.NumRows())
	}
	for i := 0; i < 2; i++ {
		if cellFloat(t, tb.Cell(i, 2)) < 1 {
			t.Fatalf("row %d accessed nothing", i)
		}
	}
}

func TestDSTCSensitivityShape(t *testing.T) {
	tb, err := DSTCSensitivity(quick)
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() < 3 {
		t.Fatalf("rows = %d", tb.NumRows())
	}
	// Tighter selection thresholds must not move more objects.
	moved1 := cellFloat(t, tb.Cell(0, 3)) // Tfa 1
	moved5 := cellFloat(t, tb.Cell(2, 3)) // Tfa 5
	if moved5 > moved1 {
		t.Fatalf("Tfa 5 moved more than Tfa 1: %v > %v", moved5, moved1)
	}
}

// TestRelatedWorkSuites pins each suite experiment to its scenario
// preset: the table's op rows are exactly the preset's op names, then
// "all".
func TestRelatedWorkSuites(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(Config) (*report.Table, error)
		ops  int
	}{
		{"oo1", OO1Suite, 4},
		{"hypermodel", HyperModelSuite, 40}, // 20 operations, cold and warm
		{"oo7", OO7Suite, 15},
	} {
		sc, err := scenarios.Build(tc.name, scenarios.Options{Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		var want []string
		for _, op := range sc.Phases[0].Spec.Ops {
			want = append(want, op.Name)
		}
		if err := sc.Close(); err != nil {
			t.Fatal(err)
		}
		if len(want) != tc.ops {
			t.Fatalf("%s: preset has %d ops, want %d", tc.name, len(want), tc.ops)
		}
		want = append(want, "all")

		tb, err := tc.run(quick)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, row := range tb.Rows() {
			got = append(got, row[0])
		}
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Fatalf("%s: op rows %v, want the preset's %v", tc.name, got, want)
		}
	}
}

// TestScenarioExperimentsReleaseTheirBackends is the leak regression: an
// ephemeral waldisk store keeps a scratch directory under TMPDIR until
// it is shut down, so the directory is empty again only if every
// scenario the experiments build is closed — and Table 4's generated CluB
// database with them, on the path where its reorganization fails
// (waldisk cannot relocate, which is how table4 used to leak on it).
func TestScenarioExperimentsReleaseTheirBackends(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	c := Config{Quick: true, Backend: "waldisk"}
	for _, run := range []func(Config) (*report.Table, error){Scenarios, OO1Suite, Genericity} {
		if _, err := run(c); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Table4(c); !errors.Is(err, backend.ErrNotSupported) {
		t.Fatalf("table4 on waldisk: %v, want a relocation skip", err)
	}
	left, err := os.ReadDir(tmp)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range left {
		t.Errorf("left behind in TMPDIR: %s", e.Name())
	}
}

func TestTypeBreakdownCoversAllTypes(t *testing.T) {
	tb, err := TypeBreakdown(quick)
	if err != nil {
		t.Fatal(err)
	}
	// The default workload mix samples the four clustering-oriented types
	// only; the shared table omits ops that never ran, so the generic
	// operations have no row.
	const nTypes = 4
	if tb.NumRows() != nTypes+1 { // the sampled types + "all"
		t.Fatalf("rows = %d, want %d", tb.NumRows(), nTypes+1)
	}
	total := cellFloat(t, tb.Cell(nTypes, 1))
	var sum float64
	for i := 0; i < nTypes; i++ {
		if got, want := tb.Cell(i, 0), core.TxType(i).String(); got != want {
			t.Fatalf("row %d is %q, want %q", i, got, want)
		}
		sum += cellFloat(t, tb.Cell(i, 1))
	}
	if sum != total {
		t.Fatalf("per-type counts %v != total %v", sum, total)
	}
}

func TestGenericWorkloadExperiment(t *testing.T) {
	tb, err := GenericWorkload(quick)
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != int(core.NumTxTypes)+1 {
		t.Fatalf("rows = %d", tb.NumRows())
	}
	// Every one of the nine types must occur under the generic mix.
	for i := 0; i < int(core.NumTxTypes); i++ {
		if cellFloat(t, tb.Cell(i, 1)) == 0 {
			t.Fatalf("type row %d never sampled under the generic mix", i)
		}
	}
}

func TestRootSkewShape(t *testing.T) {
	tb, err := RootSkew(quick)
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != 2 {
		t.Fatalf("rows = %d", tb.NumRows())
	}
	for i := 0; i < 2; i++ {
		if g := cellFloat(t, tb.Cell(i, 3)); g <= 1 {
			t.Fatalf("row %d gain = %v", i, g)
		}
	}
}
