package lint_test

import (
	"testing"

	"ocb/internal/lint"
	"ocb/internal/lint/analysistest"
	"ocb/internal/lint/load"
)

func TestDeterminism(t *testing.T) {
	analysistest.Run(t, lint.Determinism, "testdata/determinism", "oo1", "plotter")
}

func TestSentErr(t *testing.T) {
	analysistest.Run(t, lint.SentErr, "testdata/senterr", "client", "wire", "wireok")
}

func TestLockSafe(t *testing.T) {
	analysistest.Run(t, lint.LockSafe, "testdata/locksafe", "waldisk", "util", "btree")
}

func TestAllocFree(t *testing.T) {
	analysistest.Run(t, lint.AllocFree, "testdata/allocfree", "hot")
}

// TestModuleClean runs the whole suite over every package of the module,
// as CI's `go run ./cmd/ocblint ./...` does, so `go test ./...` enforces
// the same invariants: a finding anywhere in the tree (an
// //ocblint:allocfree function that allocates, a wall-clock read in a
// seed-deterministic package) fails here.
func TestModuleClean(t *testing.T) {
	loader, err := load.NewLoader("../..")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Packages("./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		findings, err := lint.Run(pkg, lint.Analyzers())
		if err != nil {
			t.Fatalf("%s: %v", pkg.Path, err)
		}
		for _, f := range findings {
			t.Errorf("%s: %s: %s", f.Pos, f.Analyzer, f.Message)
		}
	}
}
