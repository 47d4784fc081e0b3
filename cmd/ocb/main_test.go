package main

import (
	"bufio"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
)

// captureStdout runs f with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, f func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	runErr := f()
	os.Stdout = stdout
	_ = w.Close()
	return <-out, runErr
}

// countRe matches the count figures of the classic output: a phase's disk
// delta and a reorganization's cost.
var countRe = regexp.MustCompile(`phase disk delta \d+ reads / \d+ writes|moved \d+ objects, \d+ pages read, \d+ written, \d+ clustering I/Os`)

// counts reduces classic output to its deterministic columns: each op
// row's name, executed count, mean objects and mean I/Os, and the count
// figures countRe matches, one per line.
func counts(out string) string {
	var b strings.Builder
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if f := strings.Fields(line); len(f) == 8 && f[0] != "Op" {
			b.WriteString(strings.Join([]string{f[0], f[1], f[6], f[7]}, " ") + "\n")
		}
		if m := countRe.FindString(line); m != "" {
			b.WriteString(m + "\n")
		}
	}
	return b.String()
}

// TestClassicModeCounts drives the classic flag mode on paged at CI size
// and pins its count columns — per-type executed counts, mean objects and
// mean I/Os, the disk deltas and the reorganization's cost — to the
// values the classic mode printed when it still ran its own cold,
// reorganize and warm loop.
func TestClassicModeCounts(t *testing.T) {
	cold := `set 11 652.1 0.0
simple 13 771.5 0.0
hierarchy 18 100.1 0.0
stochastic 8 51.0 0.0
all 50 388.2 0.0
phase disk delta 0 reads / 0 writes
`
	for _, tc := range []struct {
		policy, want string
	}{
		{"none", cold + `set 29 651.6 0.0
simple 21 843.0 0.0
hierarchy 23 62.9 0.0
stochastic 27 51.0 0.0
all 100 394.3 0.0
phase disk delta 0 reads / 0 writes
`},
		{"dstc", cold + `moved 1456 objects, 400 pages read, 613 written, 1013 clustering I/Os
set 29 651.6 45.0
simple 21 843.0 31.9
hierarchy 23 62.9 1.9
stochastic 27 51.0 1.7
all 100 394.3 20.7
phase disk delta 2065 reads / 0 writes
`},
	} {
		out, err := captureStdout(t, func() error {
			return run([]string{"-backend", "paged", "-no", "2000", "-coldn", "50", "-hotn", "100", "-cluster", tc.policy})
		})
		if err != nil {
			t.Fatalf("-cluster %s: %v", tc.policy, err)
		}
		if got := counts(out); got != tc.want {
			t.Errorf("-cluster %s counts:\n%s\nwant:\n%s", tc.policy, got, tc.want)
		}
	}
}

// TestClassicModeRejectsOutOfRange: a flag the user sets reaches
// Params.Validate unchanged, so an out-of-range value is an error instead
// of silently keeping the preset's.
func TestClassicModeRejectsOutOfRange(t *testing.T) {
	for _, args := range [][]string{
		{"-no", "-5"},
		{"-no", "2000", "-clients", "-3"},
		{"-no", "2000", "-think", "-5ms"},
		{"-no", "2000", "-coldn", "0", "-hotn", "5"},
		{"-no", "2000", "-cluster", "nosuch"},
		{"-preset", "nosuch"},
	} {
		if _, err := captureStdout(t, func() error { return run(args) }); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}
