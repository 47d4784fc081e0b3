// Package report renders the benchmark's result tables as aligned text
// (the paper-style tables the experiment harness prints) or CSV, and
// builds the one per-op table every workload-engine result is shown in.
package report

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"ocb/internal/workload"
)

// Table is a titled grid of cells.
type Table struct {
	Title   string
	Headers []string
	Notes   []string
	rows    [][]string
}

// New returns an empty table.
func New(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends one row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Headers))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// AddNote appends a footnote line printed under the table.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

// Rows returns a copy of the data rows.
func (t *Table) Rows() [][]string {
	out := make([][]string, len(t.rows))
	for i, r := range t.rows {
		out[i] = append([]string(nil), r...)
	}
	return out
}

// Cell returns the cell at (row, col), or "" out of range.
func (t *Table) Cell(row, col int) string {
	if row < 0 || row >= len(t.rows) || col < 0 || col >= len(t.Headers) {
		return ""
	}
	return t.rows[row][col]
}

// ResultTable builds the per-op table of one engine result — the only
// shape a workload.Result is shown in, whichever command ran it: one row
// per op that executed or was skipped (an op the run never reached is
// omitted), an "all" row over the whole run, the capability skips and a
// backend summary as notes. The title is label followed by the run's
// headline figures.
func ResultTable(label string, r *workload.Result) *Table {
	t := New(fmt.Sprintf("%s — %d clients, %d ops in %s (%.1f ops/s, mean %.1f I/Os per op)",
		label, r.Clients, r.Executed, Dur(r.Duration), r.Throughput, r.MeanIOsPerOp()),
		"Op", "Count", "Mean µs", "P50 µs", "P95 µs", "P99 µs", "Mean objects", "Mean I/Os")
	for i := range r.PerOp {
		om := &r.PerOp[i]
		if om.Count == 0 && om.Skipped == 0 {
			continue
		}
		count := I64(om.Count)
		if om.Skipped > 0 {
			count += fmt.Sprintf(" (%d skipped)", om.Skipped)
		}
		t.AddRow(om.Name, count, F1(om.Response.Mean()),
			F1(om.ResponseQ.Median()), F1(om.ResponseQ.P95()), F1(om.ResponseQ.P99()),
			F1(om.Objects.Mean()), F1(om.IOs.Mean()))
	}
	t.AddRow("all", I64(r.Executed), F1(r.Total.Response.Mean()),
		F1(r.P50()), F1(r.P95()), F1(r.P99()),
		F1(r.Total.Objects.Mean()), F1(r.Total.IOs.Mean()))
	for _, sk := range r.Skips {
		t.AddNote("skip: %s", sk)
	}
	st := r.Backend
	if st.Pages > 0 {
		t.AddNote("backend: %d objects on %d pages, pool hit ratio %.2f, phase disk delta %d reads / %d writes",
			st.Objects, st.Pages, st.Pool.HitRatio(), r.DiskDelta.TotalReads(), r.DiskDelta.TotalWrites())
	} else {
		t.AddNote("backend: %d objects (no page abstraction)", st.Objects)
	}
	return t
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) string {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		return strings.TrimRight(b.String(), " ")
	}
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "%s\n", t.Title); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w, line(t.Headers)); err != nil {
		return err
	}
	total := len(t.Headers)*2 - 2
	for _, wd := range widths {
		total += wd
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", total)); err != nil {
		return err
	}
	for _, row := range t.rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "  note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// CSV writes the table as CSV (headers first; notes omitted).
func (t *Table) CSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Headers); err != nil {
		return err
	}
	for _, row := range t.rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Int formats an integer cell.
func Int(v int) string { return strconv.Itoa(v) }

// I64 formats an int64 cell.
func I64(v int64) string { return strconv.FormatInt(v, 10) }

// U64 formats a uint64 cell.
func U64(v uint64) string { return strconv.FormatUint(v, 10) }

// F1 and F2 format floats with one / two decimals.
func F1(v float64) string { return strconv.FormatFloat(v, 'f', 1, 64) }

// F2 formats a float with two decimals.
func F2(v float64) string { return strconv.FormatFloat(v, 'f', 2, 64) }

// Dur formats a duration rounded for human consumption.
func Dur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return d.Round(10 * time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond).String()
	default:
		return d.Round(time.Nanosecond).String()
	}
}
