package report

import (
	"strings"
	"testing"
	"time"

	"ocb/internal/backend"
	"ocb/internal/workload"
)

func TestRenderAlignment(t *testing.T) {
	tb := New("Demo", "Name", "Value")
	tb.AddRow("alpha", "1")
	tb.AddRow("b", "22222")
	tb.AddNote("a note")
	var sb strings.Builder
	if err := tb.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "Demo") {
		t.Fatal("title missing")
	}
	if !strings.Contains(out, "Name") || !strings.Contains(out, "Value") {
		t.Fatal("headers missing")
	}
	lines := strings.Split(out, "\n")
	// Header and rows share column starts.
	var header, row string
	for _, l := range lines {
		if strings.HasPrefix(l, "Name") {
			header = l
		}
		if strings.HasPrefix(l, "alpha") {
			row = l
		}
	}
	if header == "" || row == "" {
		t.Fatalf("output missing lines:\n%s", out)
	}
	if strings.Index(header, "Value") != strings.Index(row, "1") {
		t.Fatalf("columns misaligned:\n%s", out)
	}
	if !strings.Contains(out, "note: a note") {
		t.Fatal("note missing")
	}
}

func TestShortRowsPadded(t *testing.T) {
	tb := New("", "A", "B", "C")
	tb.AddRow("only")
	if tb.Cell(0, 1) != "" || tb.Cell(0, 2) != "" {
		t.Fatal("padding missing")
	}
	if tb.Cell(9, 0) != "" || tb.Cell(0, 9) != "" {
		t.Fatal("out-of-range cell not empty")
	}
}

func TestCSV(t *testing.T) {
	tb := New("T", "x", "y")
	tb.AddRow("1", "2")
	tb.AddRow("a,b", "c\"d")
	var sb strings.Builder
	if err := tb.CSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "x,y\n") {
		t.Fatalf("csv header wrong: %q", out)
	}
	if !strings.Contains(out, `"a,b"`) {
		t.Fatalf("csv quoting wrong: %q", out)
	}
}

func TestRowsCopy(t *testing.T) {
	tb := New("T", "x")
	tb.AddRow("v")
	rows := tb.Rows()
	rows[0][0] = "mutated"
	if tb.Cell(0, 0) != "v" {
		t.Fatal("Rows() exposed internal state")
	}
	if tb.NumRows() != 1 {
		t.Fatal("NumRows wrong")
	}
}

func TestFormatters(t *testing.T) {
	if Int(5) != "5" || I64(-2) != "-2" || U64(7) != "7" {
		t.Fatal("int formatters wrong")
	}
	if F1(1.25) != "1.2" && F1(1.25) != "1.3" {
		t.Fatalf("F1 = %s", F1(1.25))
	}
	if F2(2.345) != "2.35" && F2(2.345) != "2.34" {
		t.Fatalf("F2 = %s", F2(2.345))
	}
	if Dur(1500*time.Millisecond) == "" || Dur(5*time.Microsecond) == "" || Dur(30*time.Nanosecond) == "" {
		t.Fatal("Dur empty")
	}
}

// TestResultTable renders a hand-built engine result: an op that ran, one
// that ran and was also skipped, one that only skipped, and one the run
// never reached.
func TestResultTable(t *testing.T) {
	r := &workload.Result{
		Name:     "demo",
		Clients:  2,
		Executed: 5,
		PerOp: []workload.OpMetrics{
			{Name: "read", Count: 3},
			{Name: "scan", Count: 2, Skipped: 1},
			{Name: "seek", Skipped: 4},
			{Name: "never"},
		},
		Skips:   []string{"seek: no ordered index"},
		Backend: backend.Stats{Objects: 10, Pages: 4},
	}
	tb := ResultTable("Demo run", r)
	if !strings.HasPrefix(tb.Title, "Demo run — 2 clients, 5 ops in ") {
		t.Fatalf("title = %q", tb.Title)
	}
	want := [][2]string{{"read", "3"}, {"scan", "2 (1 skipped)"}, {"seek", "0 (4 skipped)"}, {"all", "5"}}
	if tb.NumRows() != len(want) {
		t.Fatalf("rows = %v, want %v (a never-run op has no row)", tb.Rows(), want)
	}
	for i, w := range want {
		if tb.Cell(i, 0) != w[0] || tb.Cell(i, 1) != w[1] {
			t.Fatalf("row %d = %q %q, want %q %q", i, tb.Cell(i, 0), tb.Cell(i, 1), w[0], w[1])
		}
	}
	var sum int64
	for _, om := range r.PerOp {
		sum += om.Count
	}
	if all := tb.Cell(len(want)-1, 1); all != I64(sum) {
		t.Fatalf("all row counts %s, per-op counts sum to %d", all, sum)
	}
	notes := strings.Join(tb.Notes, "\n")
	if !strings.Contains(notes, "skip: seek: no ordered index") {
		t.Fatalf("skip note missing: %q", notes)
	}
	if !strings.Contains(notes, "10 objects on 4 pages") {
		t.Fatalf("paged backend note missing: %q", notes)
	}

	r.Backend.Pages = 0
	notes = strings.Join(ResultTable("Demo run", r).Notes, "\n")
	if !strings.Contains(notes, "10 objects (no page abstraction)") {
		t.Fatalf("page-less backend note missing: %q", notes)
	}
}
